package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"eol/internal/api"
	"eol/internal/bench"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/corpus"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
	"eol/internal/trace"
	"eol/internal/verifyengine"
)

// grepScale is the line count of the grep-long input, the size of the
// input testdata/corpus/checkpoint.json ships.
const grepScale = 60

// subject is one localization problem with every input built during
// set-up, so that a timed localization re-runs nothing but the locator.
type subject struct {
	name     string
	faulty   *interp.Compiled
	correct  *interp.Compiled
	input    []int64
	expected []int64      // correct program's output on input
	faultOut []int64      // faulty program's output on input
	wrongSeq int          // where faultOut first differs from expected
	ref      *trace.Trace // correct program's trace: the state oracle's ground truth
	failing  *trace.Trace // faulty program's tree-walker trace (check c)
	profile  *confidence.Profile
	rootStmt int // the locator's stop condition, resolved from the case's root fragment
	seeded   int // the statement the fault edit changed (check a), found without the locator

	// cache is the warm switched-run cache the serve-warm workload's
	// direct localizations share; nil elsewhere (one cache per Locate).
	cache *verifyengine.RunCache

	body []byte // the POST /v1/locate request body
	want []byte // the expected response body (check e), set once a reference run has been made

	first *core.Report // the subject's first localization (check d)
}

// newSubject compiles, vets, runs and profiles one case (bench.Prepare),
// then builds the reference trace, the seeded statement and the request
// body.
func newSubject(c *bench.Case) (*subject, error) {
	p, err := c.Prepare()
	if err != nil {
		return nil, err
	}
	src, err := c.FaultySrc()
	if err != nil {
		return nil, err
	}
	ref := p.CorrectTrace()
	if ref.Err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", c.Name(), ref.Err)
	}
	seeded, err := seededStmt(p.Faulty, p.Correct)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name(), err)
	}
	faultOut := p.Run.OutputValues()
	seq := firstDiff(faultOut, p.Expected)
	if seq < 0 || seq >= len(faultOut) || seq >= len(p.Expected) {
		return nil, fmt.Errorf("%s: faulty output %v has no wrong value against %v", c.Name(), faultOut, p.Expected)
	}
	body, err := json.Marshal(&api.LocateRequest{
		SchemaVersion: api.SchemaVersion,
		Subject: corpus.Subject{
			Name:          c.Name(),
			Source:        src,
			CorrectSource: c.CorrectSrc,
			Input:         c.FailingInput,
			RootFrag:      c.RootFrag,
		},
	})
	if err != nil {
		return nil, err
	}
	return &subject{
		name:     c.Name(),
		faulty:   p.Faulty,
		correct:  p.Correct,
		input:    c.FailingInput,
		expected: p.Expected,
		faultOut: faultOut,
		wrongSeq: seq,
		ref:      ref.Trace,
		failing:  p.Run.Trace,
		profile:  p.Profile,
		rootStmt: p.RootStmt,
		seeded:   seeded,
		body:     body,
	}, nil
}

// spec returns a fresh localization problem for s with the library
// defaults.
func (s *subject) spec() *core.Spec {
	return &core.Spec{
		Program:     s.faulty,
		Input:       s.input,
		Expected:    s.expected,
		RootCause:   []int{s.rootStmt},
		Oracle:      &oracle.StateOracle{Correct: s.ref},
		Profile:     s.profile,
		VerifyCache: s.cache,
	}
}

// seededStmt finds the statement the fault edit changed: the one whose
// text differs between the faulty and the correct program, which share
// statement numbering.
func seededStmt(faulty, correct *interp.Compiled) (int, error) {
	fs, cs := faulty.Info.Stmts, correct.Info.Stmts
	if len(fs) != len(cs) {
		return 0, fmt.Errorf("statement numbering differs (%d vs %d statements)", len(fs), len(cs))
	}
	id := 0
	for i := range fs {
		if ast.StmtString(fs[i]) == ast.StmtString(cs[i]) {
			continue
		}
		if id != 0 {
			return 0, fmt.Errorf("fault edit changed more than one statement")
		}
		id = fs[i].ID()
	}
	if id == 0 {
		return 0, fmt.Errorf("fault edit changed no statement")
	}
	return id, nil
}

// checkReport applies the checks a direct localization's report must
// pass: (a) the located root entry is the seeded statement and is in
// the IPS, the wrong output is where the faulty output first differs
// from the expected one, and (d) the Table 3 counters and VerifyLog
// equal those of the subject's first localization (skipped while first
// is being made).
func (s *subject) checkReport(rep *core.Report) error {
	if !rep.Located {
		return fmt.Errorf("%s: root cause not located", s.name)
	}
	if got := rep.Trace.At(rep.RootEntry).Inst.Stmt; got != s.seeded {
		return fmt.Errorf("%s: root entry is statement S%d, the fault edit changed S%d", s.name, got, s.seeded)
	}
	if !slices.Contains(rep.IPSEntries, rep.RootEntry) {
		return fmt.Errorf("%s: root entry %d not in IPSEntries", s.name, rep.RootEntry)
	}
	if w, seq := rep.WrongOutput, s.wrongSeq; w.Seq != seq || w.Value != s.faultOut[seq] || rep.Vexp != s.expected[seq] {
		return fmt.Errorf("%s: wrong output is #%d=%d (vexp %d), faulty output first differs at #%d: %d vs %d",
			s.name, w.Seq, w.Value, rep.Vexp, seq, s.faultOut[seq], s.expected[seq])
	}
	if s.first == nil {
		return nil
	}
	if table3(rep) != table3(s.first) {
		return fmt.Errorf("%s: Table 3 counters %+v, first localization had %+v", s.name, table3(rep), table3(s.first))
	}
	if !slices.Equal(rep.VerifyLog, s.first.VerifyLog) {
		return fmt.Errorf("%s: VerifyLog differs from the first localization's", s.name)
	}
	return nil
}

type table3Row struct{ prunings, verifications, iterations, edges int }

func table3(rep *core.Report) table3Row {
	st := &rep.Stats
	return table3Row{st.UserPrunings, st.Verifications, st.Iterations, st.ExpandedEdges}
}

// firstDiff returns the first index where a and b differ, counting a
// length difference, or -1 when they are equal.
func firstDiff(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// referenceResponse localizes s through a fresh batch corpus run, checks
// its report, and encodes the /v1/locate response the server must
// return byte for byte (docs/SERVER.md).
func (s *subject) referenceResponse(ctx context.Context) ([]byte, error) {
	req, err := api.DecodeLocateRequest(bytes.NewReader(s.body))
	if err != nil {
		return nil, err
	}
	m, err := req.Manifest()
	if err != nil {
		return nil, err
	}
	res, err := corpus.Run(ctx, m, corpus.Options{})
	if err != nil {
		return nil, err
	}
	sr := &res.Subjects[0]
	if sr.Err != nil {
		return nil, fmt.Errorf("%s: batch run: %w", s.name, sr.Err)
	}
	rep := sr.Report
	if got := rep.Trace.At(rep.RootEntry).Inst.Stmt; got != s.seeded {
		return nil, fmt.Errorf("%s: batch run located S%d, the fault edit changed S%d", s.name, got, s.seeded)
	}
	return encodeResponse(sr)
}

func encodeResponse(sr *corpus.SubjectResult) ([]byte, error) {
	var buf bytes.Buffer
	err := api.Encode(&buf, &api.LocateResponse{
		SchemaVersion: api.SchemaVersion,
		SubjectResult: api.NewSubjectResult(sr, false),
	})
	return buf.Bytes(), err
}

// grepExpected computes grepsim's output on ScaledGrepInput(n) from the
// generator's rule — lines i with i%13 == 0 match literally, lines with
// i%7 == 0 or i == 3 through the mid-pattern wildcard, no other line
// matches — and checks that rule against a '.'-wildcard matcher over
// the decoded input. The output is the matching line numbers, then the
// match count and the line total.
func grepExpected(in []int64, n int) ([]int64, error) {
	var out []int64
	for i := 1; i <= n; i++ {
		if i%13 == 0 || i%7 == 0 || i == 3 {
			out = append(out, int64(i))
		}
	}
	count := int64(len(out))
	out = append(out, count, int64(n))

	lines, err := decodeLines(in)
	if err != nil {
		return nil, err
	}
	if len(lines) != n+1 {
		return nil, fmt.Errorf("grep input has %d lines, want pattern plus %d", len(lines), n)
	}
	var matched []int64
	for i, l := range lines[1:] {
		if wildcardMatch(lines[0], l) {
			matched = append(matched, int64(i+1))
		}
	}
	if !slices.Equal(matched, out[:count]) {
		return nil, fmt.Errorf("generator rule gives lines %v, the matcher %v", out[:count], matched)
	}
	return out, nil
}

// decodeLines splits a length-prefixed line encoding (bench.Line).
func decodeLines(in []int64) ([]string, error) {
	var lines []string
	for i := 0; i < len(in); {
		n := int(in[i])
		if n < 0 || i+1+n > len(in) {
			return nil, fmt.Errorf("bad line length %d at %d", n, i)
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(in[i+1+j])
		}
		lines = append(lines, string(b))
		i += 1 + n
	}
	return lines, nil
}

// wildcardMatch reports whether pat, with '.' matching any byte, occurs
// in line.
func wildcardMatch(pat, line string) bool {
	for s := 0; s+len(pat) <= len(line); s++ {
		ok := true
		for i := 0; i < len(pat); i++ {
			if pat[i] != '.' && pat[i] != line[s+i] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
