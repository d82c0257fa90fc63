package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"eol/internal/api"
	"eol/internal/bench"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/corpus"
	"eol/internal/interp"
	"eol/internal/serve"
	"eol/internal/verifyengine"
	"eol/internal/vm"
)

// workloadNames lists the workloads in the order the README describes
// them.
var workloadNames = []string{"paper9", "grep-long", "serve-warm"}

func casesOf(workload string) ([]*bench.Case, error) {
	switch workload {
	case "paper9", "serve-warm":
		return bench.Cases(), nil
	case "grep-long":
		c := *bench.ByName("grepsim/V4-F2")
		c.FailingInput = bench.ScaledGrepInput(grepScale)
		return []*bench.Case{&c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// env is one workload's prepared state.
type env struct {
	workload string
	subjects []*subject
	// srv is the in-process eolserve handler of the serve-warm workload
	// and of every traced run; shared is the warm state of the traced
	// run's direct corpus.Run calls (the server's own is not exported).
	srv    *serve.Server
	shared *corpus.Shared
	replay map[*subject]*replayState
	flip   bool // order of the next wire decomposition
}

// setup prepares a workload: every subject's compiled programs, reference
// trace, expected output, value profile and root statement, then the
// warm-up the workload's operation needs — a first localization of each
// subject (its report is check d's reference), or a server whose caches
// the first requests fill. A traced run prepares both, plus the replay
// state for re-issuing verifications.
func setup(ctx context.Context, workload string, traced bool) (*env, error) {
	cases, err := casesOf(workload)
	if err != nil {
		return nil, err
	}
	e := &env{workload: workload}
	for _, c := range cases {
		s, err := newSubject(c)
		if err != nil {
			return nil, err
		}
		if workload == "serve-warm" {
			// The server's localization: profile from the reference run,
			// switched runs from a cache that stays warm across requests.
			prof := confidence.NewProfile()
			prof.AddTrace(s.ref)
			s.profile = prof
			s.cache = verifyengine.NewRunCache(0)
		}
		if workload == "grep-long" {
			want, err := grepExpected(s.input, grepScale)
			if err != nil {
				return nil, err
			}
			if !slices.Equal(want, s.expected) {
				return nil, fmt.Errorf("%s: correct program printed %v, the generator's rule gives %v", s.name, s.expected, want)
			}
		}
		e.subjects = append(e.subjects, s)
	}
	if workload != "serve-warm" || traced {
		for _, s := range e.subjects {
			rep, err := core.LocateContext(ctx, s.spec())
			if err == nil {
				err = s.checkReport(rep)
			}
			if err != nil {
				return nil, fmt.Errorf("first localization: %w", err)
			}
			s.first = rep
		}
	}
	if workload == "serve-warm" || traced {
		e.srv = serve.New(serve.Config{})
		for _, s := range e.subjects {
			if s.want, err = s.referenceResponse(ctx); err != nil {
				e.close()
				return nil, err
			}
			if err := s.checkResponse(e.request(s)); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	if traced {
		e.shared = corpus.NewShared(0)
		e.replay = map[*subject]*replayState{}
		for _, s := range e.subjects {
			if err := e.wire(ctx, s, layerTimes{}); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if e.replay[s], err = newReplayState(s); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

// request sends s's locate request to the in-process server.
func (e *env) request(s *subject) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, newRequest(s))
	return rec
}

func newRequest(s *subject) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(s.body))
}

// checkResponse is check (e): the response is byte-identical to the
// batch driver's row for the same subject.
func (s *subject) checkResponse(rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", s.name, rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), s.want) {
		return fmt.Errorf("%s: response differs from the batch row:\n%s\nwant\n%s", s.name, rec.Body.Bytes(), s.want)
	}
	return nil
}

// op returns s's timed operation with its inputs already built: a
// localization with a fresh spec, or (serve-warm, unless direct) one
// request to the server. The operation returns the check to run on its
// outcome once the clock has stopped.
func (e *env) op(ctx context.Context, s *subject, direct bool) func() (func() error, error) {
	if e.workload == "serve-warm" && !direct {
		req, rec := newRequest(s), httptest.NewRecorder()
		return func() (func() error, error) {
			e.srv.ServeHTTP(rec, req)
			return func() error { return s.checkResponse(rec) }, nil
		}
	}
	spec := s.spec()
	return func() (func() error, error) {
		rep, err := core.LocateContext(ctx, spec)
		return func() error { return s.checkReport(rep) }, err
	}
}

// wire splits one request's work over the wire layers: decoding,
// the corpus run on warm state, encoding, and the server's own share —
// the served request's time minus the other three, with the two timed
// in alternating order so that neither always runs on a warmer heap.
// It also times a VM run of the correct program, which stands for the
// corpus's reference run. Both the decomposed and the served response
// must pass check (e).
func (e *env) wire(ctx context.Context, s *subject, lt layerTimes) error {
	var decode, run, encode, served time.Duration
	decomposed := func() error {
		t0 := time.Now()
		req, err := api.DecodeLocateRequest(bytes.NewReader(s.body))
		if err != nil {
			return err
		}
		m, err := req.Manifest()
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := corpus.Run(ctx, m, corpus.Options{Shared: e.shared})
		if err != nil {
			return err
		}
		t2 := time.Now()
		body, err := encodeResponse(&res.Subjects[0])
		if err != nil {
			return err
		}
		encode = time.Since(t2)
		decode, run = t1.Sub(t0), t2.Sub(t1)
		if !bytes.Equal(body, s.want) {
			return fmt.Errorf("%s: decomposed response differs from the batch row", s.name)
		}
		return nil
	}
	viaServer := func() error {
		req, rec := newRequest(s), httptest.NewRecorder()
		t0 := time.Now()
		e.srv.ServeHTTP(rec, req)
		served = time.Since(t0)
		return s.checkResponse(rec)
	}
	first, second := decomposed, viaServer
	if e.flip = !e.flip; e.flip {
		first, second = viaServer, decomposed
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}

	start := time.Now()
	r := vm.Backend.Run(s.correct, interp.Options{Input: s.input, BuildTrace: true})
	refRun := time.Since(start)
	if r.Err != nil {
		return fmt.Errorf("%s: reference run: %w", s.name, r.Err)
	}

	lt["api.decode_ms"] = ms(decode)
	lt["corpus.run_ms"] = ms(run)
	lt["api.encode_ms"] = ms(encode)
	lt["serve.overhead_ms"] = ms(served - decode - run - encode)
	lt["corpus.reference_run_ms"] = ms(refRun)
	return nil
}
