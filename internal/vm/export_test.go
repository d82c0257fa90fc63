package vm

// CompareResults exposes the differential comparison to the external
// test package: random_test.go needs testsupport's program generator,
// and testsupport imports vm.
var CompareResults = compareResults
