package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"rdfcube/internal/core"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// Correctness checks. Each runs outside the timed window and outside
// set-up, and returns an error naming the first difference it finds.

// diffPairs compares the three relationship sets of got against want,
// pair by pair, after sorting copies of any set that is not sorted.
func diffPairs(what string, want, got *core.Result) error {
	sets := []struct {
		name      string
		want, got []core.Pair
	}{
		{"full", want.FullSet, got.FullSet},
		{"partial", want.PartialSet, got.PartialSet},
		{"compl", want.ComplSet, got.ComplSet},
	}
	for _, s := range sets {
		w, g := sortedPairs(s.want), sortedPairs(s.got)
		for i := 0; i < len(w) || i < len(g); i++ {
			switch {
			case i >= len(g):
				return fmt.Errorf("%s: %s set lacks pair %v (%d pairs, want %d)", what, s.name, w[i], len(g), len(w))
			case i >= len(w):
				return fmt.Errorf("%s: %s set has extra pair %v (%d pairs, want %d)", what, s.name, g[i], len(g), len(w))
			case w[i] != g[i]:
				return fmt.Errorf("%s: %s set differs at position %d: %v, want %v", what, s.name, i, g[i], w[i])
			}
		}
	}
	return nil
}

func pairLess(a, b core.Pair) bool { return a.A < b.A || a.A == b.A && a.B < b.B }

func sortedPairs(ps []core.Pair) []core.Pair {
	if sort.SliceIsSorted(ps, func(i, j int) bool { return pairLess(ps[i], ps[j]) }) {
		return ps
	}
	out := append([]core.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

// diffStates compares two states by observation URI, so states whose
// observations sit at different indices (an incremental state appends
// inserts at the end; a fresh compile places them in their dataset) can
// be compared: got's pairs are renamed to want's indices, and
// complementarity, which is unordered, is normalized on both sides.
func diffStates(what string, wantS *core.Space, want *core.Result, gotS *core.Space, got *core.Result) error {
	if wantS.N() != gotS.N() {
		return fmt.Errorf("%s: %d observations, want %d", what, gotS.N(), wantS.N())
	}
	index := make(map[string]int, wantS.N())
	for i, o := range wantS.Obs {
		index[o.URI.Value] = i
	}
	rename := make([]int, gotS.N())
	for i, o := range gotS.Obs {
		j, ok := index[o.URI.Value]
		if !ok {
			return fmt.Errorf("%s: observation %s is not in the reference state", what, o.URI.Value)
		}
		rename[i] = j
	}
	mapped := func(ps []core.Pair, to []int, unordered bool) []core.Pair {
		out := make([]core.Pair, len(ps))
		for k, p := range ps {
			a, b := p.A, p.B
			if to != nil {
				a, b = to[a], to[b]
			}
			if unordered && b < a {
				a, b = b, a
			}
			out[k] = core.Pair{A: a, B: b}
		}
		return out
	}
	return diffPairs(what,
		&core.Result{FullSet: want.FullSet, PartialSet: want.PartialSet, ComplSet: mapped(want.ComplSet, nil, true)},
		&core.Result{FullSet: mapped(got.FullSet, rename, false), PartialSet: mapped(got.PartialSet, rename, false), ComplSet: mapped(got.ComplSet, rename, true)})
}

// missingAcked returns an error naming the first acknowledged insert
// that is not among the durable observation URIs.
func missingAcked(acked []string, durable map[string]bool) error {
	for _, uri := range acked {
		if !durable[uri] {
			return fmt.Errorf("acknowledged insert %s is in neither the newest snapshot nor the WAL", uri)
		}
	}
	return nil
}

func urisOf(s *core.Space) map[string]bool {
	have := make(map[string]bool, s.N())
	for _, o := range s.Obs {
		have[o.URI.Value] = true
	}
	return have
}

// sameAnswer compares a gate answer with the oracle's, byte for byte.
func sameAnswer(path string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("GET %s: gate answered %.200s, oracle %.200s", path, got, want)
	}
	return nil
}

// insertBody is the POST /v1/observations body loadgen builds.
type insertBody struct {
	Dataset    string            `json:"dataset"`
	URI        string            `json:"uri"`
	Dimensions map[string]string `json:"dimensions"`
	Measures   map[string]string `json:"measures"`
}

// observationOf rebuilds the observation an insert body describes,
// the way the insert handler does.
func observationOf(c *qb.Corpus, body []byte) (*qb.Observation, error) {
	var in insertBody
	if err := json.Unmarshal(body, &in); err != nil {
		return nil, err
	}
	for _, ds := range c.Datasets {
		if ds.URI.Value != in.Dataset {
			continue
		}
		o := &qb.Observation{
			URI:           rdf.NewIRI(in.URI),
			Dataset:       ds,
			DimValues:     make([]rdf.Term, len(ds.Schema.Dimensions)),
			MeasureValues: make([]rdf.Term, len(ds.Schema.Measures)),
		}
		for k, v := range in.Dimensions {
			i := ds.Schema.DimIndex(rdf.NewIRI(k))
			if i < 0 {
				return nil, fmt.Errorf("dimension %s not in %s", k, in.Dataset)
			}
			o.DimValues[i] = rdf.NewIRI(v)
		}
		for k, v := range in.Measures {
			i := ds.Schema.MeasureIndex(rdf.NewIRI(k))
			if i < 0 {
				return nil, fmt.Errorf("measure %s not in %s", k, in.Dataset)
			}
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				o.MeasureValues[i] = rdf.NewTypedLiteral(v, rdf.XSDInteger)
			} else {
				o.MeasureValues[i] = rdf.NewLiteral(v)
			}
		}
		return o, nil
	}
	return nil, fmt.Errorf("unknown dataset %s", in.Dataset)
}
