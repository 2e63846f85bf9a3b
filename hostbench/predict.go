package main

import (
	"fmt"
	"math"
	"math/rand"

	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/gcn"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// predictTestFrac is the share of designs held out from training, and
// predictSplitSeed picks them and the models' initial weights.
const (
	predictTestFrac  = 0.25
	predictSplitSeed = 7
)

// predictDigest is the held-out accuracy of each job kind's model, the
// paper's Fig. 5 headline number, kept to the last bit.
type predictDigest struct {
	AbsPctErr map[string]float64 `json:"abs_pct_err"`
}

type predictInst struct {
	ds     *core.Dataset
	epochs int
	// pred is the last trained predictor, whose forward passes the
	// traced run times one graph at a time.
	pred *core.Predictor
}

// setupPredict labels the training set by running full flows over the
// first benchmarks under two recipes. The seed shuffles the order of
// each job kind's samples, which changes the training trajectory but
// not the designs trained on, so host time does not depend on it.
func setupPredict(seed int64, sz size) (instance, error) {
	ds, err := core.BuildDataset(techlib.Default14nm(), core.DatasetOptions{
		Benchmarks: designs.BenchmarkNames()[:sz.predictBenches],
		Recipes:    synth.StandardRecipes[:2],
		Scale:      sz.predictScale,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range core.JobKinds() {
		s := ds.Jobs[k]
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	return &predictInst{ds: ds, epochs: sz.epochs}, nil
}

// heldOut returns the graphs of kind k's held-out designs, in the
// order TrainPredictor evaluates them.
func (p *predictInst) heldOut(k core.JobKind) []*gcn.Graph {
	_, test := p.ds.SplitByDesign(k, predictTestFrac, predictSplitSeed)
	graphs := make([]*gcn.Graph, len(test))
	for i, s := range test {
		graphs[i] = s.Graph
	}
	return graphs
}

// op trains one model per job kind at the paper's GCN widths and
// predicts the held-out designs' runtimes in batch.
func (p *predictInst) op(tr *tracer) (result, error) {
	watch := startWatch()
	id := tr.begin("train")
	pred, eval, err := core.TrainPredictor(p.ds, gcn.Config{Epochs: p.epochs}, predictTestFrac, predictSplitSeed)
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	d := predictDigest{AbsPctErr: map[string]float64{}}
	for _, k := range core.JobKinds() {
		id := tr.begin("predict")
		got, err := pred.PredictRuntimesBatch(k, p.heldOut(k))
		tr.end(id)
		if err != nil {
			return result{}, err
		}
		// Batched inference must reproduce the evaluation's one-graph
		// predictions bit for bit.
		je := eval.PerJob[k]
		if len(got) != len(je.Records) || len(got) == 0 {
			return result{}, fmt.Errorf("predict: %s: %d batch predictions for %d held-out graphs", k, len(got), len(je.Records))
		}
		for i, rec := range je.Records {
			for j := range rec.Pred {
				if got[i][j] != rec.Pred[j] {
					return result{}, fmt.Errorf("predict: %s graph %d: batch %g, single %g", k, i, got[i][j], rec.Pred[j])
				}
			}
		}
		if e := je.AvgAbsPctErr; math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
			return result{}, fmt.Errorf("predict: %s error %g", k, e)
		}
		d.AbsPctErr[k.String()] = je.AvgAbsPctErr
	}
	took := watch.elapsed()
	p.pred = pred
	return result{digest: d, took: took}, nil
}

// calibrate times single-graph forward passes of the last model.
func (p *predictInst) calibrate(tr *tracer, ref result) error {
	for _, k := range core.JobKinds() {
		for _, g := range p.heldOut(k) {
			id := tr.begin("forward")
			_, err := p.pred.PredictRuntimes(k, g)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *predictInst) layers(tr *tracer, last result) map[string]float64 {
	d, _ := last.digest.(predictDigest)
	var sum float64
	for _, k := range core.JobKinds() {
		sum += d.AbsPctErr[k.String()]
	}
	return map[string]float64{
		"gcn.forward_ms":   1e3 * median(tr.durations("forward")),
		"gcn.alloc_mib":    tr.mibPerOp("train"),
		"core.abs_pct_err": sum / float64(len(d.AbsPctErr)),
	}
}
