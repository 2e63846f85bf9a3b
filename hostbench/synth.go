package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"edacloud/internal/aig"
	"edacloud/internal/designs"
	"edacloud/internal/netlist"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// synthDigest identifies a synthesis result: the optimized AIG's and
// the mapped netlist's fingerprints, the cell statistics, and whether
// random simulation found the output equivalent to the input.
type synthDigest struct {
	OptimizedFingerprint uint64        `json:"optimized_fingerprint"`
	NetlistFingerprint   uint64        `json:"netlist_fingerprint"`
	Stats                netlist.Stats `json:"stats"`
	SimEquiv             bool          `json:"sim_equiv"`
}

type synthInst struct {
	text   []byte // the design as ASCII AIGER, what each op reads
	input  *aig.Graph
	lib    *techlib.Library
	recipe synth.Recipe
	seed   int64
	// serial holds the host seconds of the traced run's one-worker
	// passes, for par.synth_speedup.
	serial []float64
}

// setupSynth builds the design and serializes it to AIGER. The seed
// shuffles the order of the primary outputs, which changes how the
// passes partition the design into cones but not its size.
func setupSynth(seed int64, sz size) (instance, error) {
	g, err := designs.Benchmark(sz.synthBench, sz.synthScale)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := g.WriteASCII(&buf); err != nil {
		return nil, err
	}
	text, err := permuteOutputs(buf.Bytes(), seed)
	if err != nil {
		return nil, err
	}
	input, err := aig.ReadASCII(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	recipe, err := synth.RecipeByName("resyn2")
	if err != nil {
		return nil, err
	}
	return &synthInst{text: text, input: input, lib: techlib.Default14nm(), recipe: recipe, seed: seed}, nil
}

// permuteOutputs shuffles the output lines of an ASCII AIGER text with
// a seeded permutation, renumbering the output symbols to match.
func permuteOutputs(text []byte, seed int64) ([]byte, error) {
	lines := strings.Split(string(text), "\n")
	hdr := strings.Fields(lines[0])
	if len(hdr) != 6 {
		return nil, fmt.Errorf("synth: bad AIGER header %q", lines[0])
	}
	nIn, err1 := strconv.Atoi(hdr[2])
	nOut, err2 := strconv.Atoi(hdr[4])
	nAnd, err3 := strconv.Atoi(hdr[5])
	if err1 != nil || err2 != nil || err3 != nil || hdr[3] != "0" || 1+nIn+nOut+nAnd > len(lines) {
		return nil, fmt.Errorf("synth: bad AIGER header %q", lines[0])
	}
	perm := rand.New(rand.NewSource(seed)).Perm(nOut)
	newIndex := make([]int, nOut)
	outs := lines[1+nIn : 1+nIn+nOut]
	shuffled := make([]string, nOut)
	for to, from := range perm {
		shuffled[to] = outs[from]
		newIndex[from] = to
	}
	copy(outs, shuffled)
	for i := 1 + nIn + nOut + nAnd; i < len(lines); i++ {
		rest, ok := strings.CutPrefix(lines[i], "o")
		if !ok {
			continue
		}
		idx, name, ok := strings.Cut(rest, " ")
		n, err := strconv.Atoi(idx)
		if !ok || err != nil || n < 0 || n >= nOut {
			return nil, fmt.Errorf("synth: bad output symbol %q", lines[i])
		}
		lines[i] = "o" + strconv.Itoa(newIndex[n]) + " " + name
	}
	return []byte(strings.Join(lines, "\n")), nil
}

// passes runs the recipe one pass at a time with the given worker
// bound, one span per pass.
func (s *synthInst) passes(tr *tracer, g *aig.Graph, workers int) (*aig.Graph, error) {
	all := tr.begin("passes")
	defer tr.end(all)
	for _, p := range s.recipe.Passes {
		id := tr.begin(p.String())
		next, err := synth.RunPass(g, p, nil, workers)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		g = next
	}
	return g, nil
}

func (s *synthInst) op(tr *tracer) (result, error) {
	watch := startWatch()
	id := tr.begin("aig.read")
	g, err := aig.ReadASCII(bytes.NewReader(s.text))
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	work := tr.begin("synth")
	opt, err := s.passes(tr, g, 0)
	var nl *netlist.Netlist
	if err == nil {
		id = tr.begin("map")
		nl, err = synth.MapToCells(opt, s.lib, false, nil)
		tr.end(id)
	}
	tr.end(work)
	if err != nil {
		return result{}, err
	}
	took := watch.elapsed()
	d := synthDigest{
		OptimizedFingerprint: opt.Fingerprint(),
		NetlistFingerprint:   nl.Fingerprint(),
		Stats:                nl.Stats(),
		SimEquiv:             aig.SimEquiv(s.input, opt, s.seed, 8),
	}
	if !d.SimEquiv {
		return result{}, fmt.Errorf("synth: optimized AIG is not equivalent to its input")
	}
	if d.Stats.POs != s.input.NumOutputs() || d.Stats.Cells == 0 {
		return result{}, fmt.Errorf("synth: netlist %+v lost the design's %d outputs", d.Stats, s.input.NumOutputs())
	}
	return result{digest: d, took: took}, nil
}

// calibrate reruns the passes on one worker; their output must match
// the full pool's bit for bit.
func (s *synthInst) calibrate(_ *tracer, ref result) error {
	g, err := aig.ReadASCII(bytes.NewReader(s.text))
	if err != nil {
		return err
	}
	start := time.Now()
	opt, err := s.passes(nil, g, 1)
	if err != nil {
		return err
	}
	s.serial = append(s.serial, time.Since(start).Seconds())
	if want := ref.digest.(synthDigest).OptimizedFingerprint; opt.Fingerprint() != want {
		return fmt.Errorf("synth: one-worker passes fingerprint %#x, full pool %#x", opt.Fingerprint(), want)
	}
	return nil
}

func (s *synthInst) layers(tr *tracer, _ result) map[string]float64 {
	return map[string]float64{
		"aig.read_s":        tr.secondsPerOp("aig.read"),
		"synth.balance_s":   tr.secondsPerOp("balance"),
		"synth.rewrite_s":   tr.secondsPerOp("rewrite"),
		"synth.refactor_s":  tr.secondsPerOp("refactor"),
		"synth.map_s":       tr.secondsPerOp("map"),
		"synth.alloc_mib":   tr.mibPerOp("synth"),
		"par.synth_speedup": median(s.serial) / tr.secondsPerOp("passes"),
	}
}
