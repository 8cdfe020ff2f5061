package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"vabuf"
	"vabuf/internal/server"
	"vabuf/internal/yield"
)

// ratForm is a re-propagated root RAT with the space its terms live in;
// the variation kernels are timed on these.
type ratForm struct {
	form  vabuf.Form
	space *vabuf.VariationSpace
}

// checkAnswer is the answer oracle: it re-propagates the returned
// assignment with yield.Propagate under a model rebuilt from the same
// recipe and requires the reported mean and sigma to match exactly.
func checkAnswer(tr *tracer, parent spanRef, tree *vabuf.Tree, lib vabuf.Library, algo string,
	assign map[vabuf.NodeID]int, meanPS, sigmaPS float64) (ratForm, error) {
	model, err := buildModel(tree, algo)
	if err != nil {
		return ratForm{}, fmt.Errorf("rebuilding model: %w", err)
	}
	for id, b := range assign {
		if int(id) < 0 || int(id) >= tree.Len() || b < 0 || b >= len(lib) {
			return ratForm{}, fmt.Errorf("assignment entry %d -> %d out of range", id, b)
		}
	}
	sp := tr.begin("yield.Propagate", parent)
	rat, err := yield.Propagate(tree, lib, assign, model)
	tr.end(sp)
	if err != nil {
		return ratForm{}, fmt.Errorf("re-propagating: %w", err)
	}
	sigma, space := 0.0, (*vabuf.VariationSpace)(nil)
	if model != nil {
		space = model.Space
		sigma = rat.Sigma(space)
	}
	if rat.Mean() != meanPS || sigma != sigmaPS {
		return ratForm{}, fmt.Errorf("reported mean/sigma %v/%v, re-propagated %v/%v",
			meanPS, sigmaPS, rat.Mean(), sigma)
	}
	return ratForm{form: rat, space: space}, nil
}

// assignmentOf maps the response's buffer names back to library indices.
func assignmentOf(entries []server.AssignmentEntry, lib vabuf.Library) (map[vabuf.NodeID]int, error) {
	byName := make(map[string]int, len(lib))
	for i, b := range lib {
		byName[b.Name] = i
	}
	out := make(map[vabuf.NodeID]int, len(entries))
	for _, e := range entries {
		b, ok := byName[e.Buffer]
		if !ok {
			return nil, fmt.Errorf("unknown buffer %q at node %d", e.Buffer, e.Node)
		}
		out[vabuf.NodeID(e.Node)] = b
	}
	return out, nil
}

// checkInsertBody decodes an /v1/insert answer and runs the oracle on it.
func checkInsertBody(tr *tracer, parent spanRef, tree *vabuf.Tree, algo string, body []byte) (server.InsertResult, ratForm, error) {
	var res server.InsertResult
	if err := json.Unmarshal(body, &res); err != nil {
		return res, ratForm{}, fmt.Errorf("decoding answer: %w", err)
	}
	if res.Algo != algo || res.Sinks != tree.NumSinks() || len(res.Assignment) != res.NumBuffers {
		return res, ratForm{}, fmt.Errorf("answer shape: algo %q sinks %d buffers %d/%d",
			res.Algo, res.Sinks, len(res.Assignment), res.NumBuffers)
	}
	lib := vabuf.DefaultLibrary()
	assign, err := assignmentOf(res.Assignment, lib)
	if err != nil {
		return res, ratForm{}, err
	}
	rf, err := checkAnswer(tr, parent, tree, lib, algo, assign, res.MeanPS, res.SigmaPS)
	return res, rf, err
}

// checkYieldBody decodes a /v1/yield answer and runs the oracle on both
// the insertion result and the service's own re-propagated report.
func checkYieldBody(tr *tracer, parent spanRef, tree *vabuf.Tree, algo string, maxSamples int, body []byte) (server.YieldResult, ratForm, error) {
	var res server.YieldResult
	if err := json.Unmarshal(body, &res); err != nil {
		return res, ratForm{}, fmt.Errorf("decoding answer: %w", err)
	}
	lib := vabuf.DefaultLibrary()
	assign, err := assignmentOf(res.Insert.Assignment, lib)
	if err != nil {
		return res, ratForm{}, err
	}
	rf, err := checkAnswer(tr, parent, tree, lib, algo, assign, res.Insert.MeanPS, res.Insert.SigmaPS)
	if err != nil {
		return res, rf, err
	}
	if res.MeanPS != res.Insert.MeanPS || res.SigmaPS != res.Insert.SigmaPS {
		return res, rf, fmt.Errorf("yield report %v/%v differs from insertion %v/%v",
			res.MeanPS, res.SigmaPS, res.Insert.MeanPS, res.Insert.SigmaPS)
	}
	if mc := res.MonteCarlo; mc == nil || mc.Samples <= 0 || mc.Samples > maxSamples {
		return res, rf, fmt.Errorf("monte carlo block %+v outside (0, %d] samples", mc, maxSamples)
	}
	return res, rf, nil
}

// volatileFields are the answer fields that may differ between two
// correct answers to one body: timings, cache flags, and the run
// counters (a run that restores cached subtree frontiers does less work).
var volatileFields = []string{"elapsed_ms", "stats", "tree_cache_hit", "model_cache_hit"}

// canonicalAnswer re-encodes an answer without its volatile fields, with
// every number kept in its original text, so two answers compare
// byte-for-byte on everything a client relies on.
func canonicalAnswer(body []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	strip := func(m map[string]any) {
		for _, f := range volatileFields {
			delete(m, f)
		}
	}
	strip(doc)
	if ins, ok := doc["insert"].(map[string]any); ok {
		strip(ins)
	}
	return json.Marshal(doc)
}

// sameAnswer reports whether two answers agree on every non-volatile
// byte; the error describes the first difference.
func sameAnswer(a, b []byte) error {
	ca, err := canonicalAnswer(a)
	if err != nil {
		return err
	}
	cb, err := canonicalAnswer(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ca, cb) {
		i := 0
		for i < len(ca) && i < len(cb) && ca[i] == cb[i] {
			i++
		}
		lo := max(i-40, 0)
		return fmt.Errorf("answers differ at byte %d: %q vs %q", i,
			clip(string(ca[lo:]), 80), clip(string(cb[lo:]), 80))
	}
	return nil
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
