package main

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"gsgcn"
)

// trainSpec is one training workload: a dataset preset and a model
// shape. Workers, PInter and Seed are filled per trainer.
type trainSpec struct {
	preset string
	scale  float64
	cfg    gsgcn.Config
}

// The sizes are the ISSUE's shapes scaled down until a timed epoch is
// well under a second, so that a run holds tens of steps: the graph
// shrinks (and on train_gemm the subgraph budget with it), the layer
// widths and feature counts that decide which kernel dominates do not.
func runTrainGemm(rc *runCtx) error {
	return runTrain(rc, trainSpec{preset: "ppi", scale: 0.25,
		cfg: gsgcn.Config{Layers: 2, Hidden: 128, FrontierM: 100, Budget: 600}})
}

// Hidden 8 rather than 16: on the scaled-down graph the sampled
// subgraphs are sparser than the ISSUE's, and only at this width is
// propagation still the larger share of a step (measured 52% against
// 42% for weight application; at hidden 16 it is 42% against 50%).
// The graph is small enough (17 MB of features) that the run is not
// purely at the mercy of the neighbours' memory traffic.
func runTrainProp(rc *runCtx) error {
	return runTrain(rc, trainSpec{preset: "reddit", scale: 0.015,
		cfg: gsgcn.Config{Layers: 2, Hidden: 8, FrontierM: 150, Budget: 1000}})
}

// trainRun is a trainer with the per-step record the metrics come from.
type trainRun struct {
	tr       *gsgcn.Trainer
	perEpoch int             // steps per epoch: ceil(|V| / Budget), as Trainer.Epoch
	losses   []float64       // every step since construction, warm-up included
	stepDur  []time.Duration // timed steps only
	epochDur []time.Duration // timed epochs only
	// ref, when set, is read before every timed step; epochCPU and
	// epochRef then hold, per timed epoch, this process's CPU time over
	// its steps and the mean of its reference readings.
	ref      *refKernel
	epochCPU []time.Duration
	epochRef []time.Duration
	rssMB    []float64 // resident set size at the end of each timed epoch
}

// newTrainRun performs one set-up: dataset load (when ds is nil),
// model, trainer and a warm-up epoch, which also starts the sampler
// pipeline.
func newTrainRun(ts trainSpec, workers int, seed uint64, ds *gsgcn.Dataset) (*trainRun, *gsgcn.Dataset, error) {
	if ds == nil {
		var err error
		if ds, err = gsgcn.LoadPreset(ts.preset, ts.scale, 0); err != nil {
			return nil, nil, err
		}
	}
	cfg := ts.cfg
	cfg.Workers, cfg.PInter, cfg.Seed = workers, workers, seed
	model := gsgcn.NewModel(ds, cfg)
	r := &trainRun{tr: gsgcn.NewTrainer(ds, model)}
	r.perEpoch = (ds.G.NumVertices() + cfg.Budget - 1) / cfg.Budget
	for i := 0; i < r.perEpoch; i++ {
		r.losses = append(r.losses, r.tr.Step())
	}
	return r, ds, nil
}

// epochs runs whole timed epochs until budget has elapsed, and at
// least min of them.
func (r *trainRun) epochs(rc *runCtx, budget time.Duration, min int, tr *tracer, name string) {
	start := time.Now()
	for n := 0; (n < min || time.Since(start) < budget) && rc.ctx.Err() == nil; n++ {
		eid := tr.begin(name+".epoch", 0)
		e0 := time.Now()
		var refSum, refSpent, cpu time.Duration
		for i := 0; i < r.perEpoch; i++ {
			if r.ref != nil {
				r0 := time.Now()
				refSum += r.ref.read()
				refSpent += time.Since(r0)
			}
			sid := tr.begin(name+".step", eid)
			c0 := selfCPU()
			s0 := time.Now()
			r.losses = append(r.losses, r.tr.Step())
			r.stepDur = append(r.stepDur, time.Since(s0))
			cpu += selfCPU().sub(c0).total()
			tr.end(sid)
		}
		r.epochDur = append(r.epochDur, time.Since(e0)-refSpent)
		r.epochCPU = append(r.epochCPU, cpu)
		r.epochRef = append(r.epochRef, refSum/time.Duration(r.perEpoch))
		tr.end(eid)
		if rss, err := procRSSMB(0); err == nil {
			r.rssMB = append(r.rssMB, rss)
		}
	}
}

// stepsPerSecond is the median over the given timed epochs of
// steps / epoch time.
func (r *trainRun) stepsPerSecond(epochs []time.Duration) float64 {
	xs := make([]float64, 0, len(epochs))
	for _, d := range epochs {
		xs = append(xs, float64(r.perEpoch)/d.Seconds())
	}
	return median(xs)
}

// normalisedPerStep is the median over the timed epochs of an epoch's
// time (wall or CPU) per step on the nominal host, in ms.
func (r *trainRun) normalisedPerStep(epochs []time.Duration) float64 {
	xs := make([]float64, len(epochs))
	for i, d := range epochs {
		xs[i] = normalise(ms(d), r.epochRef[i]) / float64(r.perEpoch)
	}
	return median(xs)
}

// evaluate times Trainer.Evaluate over the validation split until
// budget has elapsed, at least min times, and returns each call's ms.
func (r *trainRun) evaluate(rc *runCtx, ds *gsgcn.Dataset, budget time.Duration, min int) []float64 {
	var out []float64
	start := time.Now()
	for n := 0; (n < min || time.Since(start) < budget) && rc.ctx.Err() == nil; n++ {
		id := rc.tr.begin("evaluate", 0)
		t0 := time.Now()
		f1 := r.tr.Evaluate(ds.ValIdx)
		out = append(out, ms(time.Since(t0)))
		rc.tr.end(id)
		rc.check(f1 >= 0 && f1 <= 1, "Evaluate returned F1 %v", f1)
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

func durationsNS(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return xs
}

func secondsOf(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runTrain measures a training workload on ONE core: Workers = PInter
// = 1 with GOMAXPROCS 1 for set-up, training and evaluation alike.
// On this host's two hyperthreads a two-worker epoch moved between
// 12.6 and 18.9 steps/s across back-to-back runs of the same code,
// and a one-worker run beside an idle second P was slower and twice
// as noisy as the same run alone on one P, so the numbers that gate
// are the one-core ones; the all-cores run is in the traced run
// (core.epoch_s, perf.speedup) and, briefly, in every run's check
// that the loss trace does not depend on the worker count.
func runTrain(rc *runCtx, ts trainSpec) error {
	total := time.Duration(rc.seconds * float64(time.Second))
	procs := runtime.GOMAXPROCS(1)
	restore := func() { runtime.GOMAXPROCS(procs) }
	defer restore()

	// Set-up, repeated so setup_s is a median; the last one is kept.
	// setups holds the times as measured, setupsN on the nominal host.
	var (
		one             *trainRun
		ds              *gsgcn.Dataset
		setups, setupsN []float64
	)
	ref := newRefKernel()
	id := rc.tr.begin("setup", 0)
	before := ref.read()
	for began := time.Now(); rc.moreSetups(len(setups), began); {
		t0 := time.Now()
		var err error
		if one, ds, err = newTrainRun(ts, 1, rc.seed, nil); err != nil {
			return err
		}
		s := time.Since(t0).Seconds()
		after := ref.read()
		setups = append(setups, s)
		setupsN = append(setupsN, normalise(s, meanDuration(before, after)))
		before = after
	}
	rc.tr.end(id)

	if rc.traced() {
		return traceTrain(rc, ts, one, ds, total, restore)
	}

	// rss_mb is the size of training, not of the repeated set-ups
	// before it: their garbage goes back to the system first.
	debug.FreeOSMemory()
	one.ref = ref
	one.epochs(rc, total, 3, nil, "")
	one.evaluate(rc, ds, 0, 1) // for its check; timed in the traced run
	if len(one.rssMB) != len(one.epochDur) {
		return errors.New("reading /proc/self/status failed during the timed epochs")
	}
	restore()
	if err := checkLosses(rc, ts, one, ds); err != nil {
		return err
	}

	steps := len(one.stepDur)
	rc.set("setup_s", median(setupsN), len(setupsN))
	rc.set("ops_per_s", 1000/one.normalisedPerStep(one.epochDur), len(one.epochDur))
	rc.set("cpu_ms_per_op", one.normalisedPerStep(one.epochCPU), len(one.epochCPU))
	rc.set("rss_mb", median(one.rssMB), len(one.rssMB))
	rc.note("%s x%g: |V|=%d |E|=%d attrs=%d, %d steps/epoch; %d timed epochs (%d steps) on one core",
		ts.preset, ts.scale, ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim(),
		one.perEpoch, len(one.epochDur), steps)
	rc.note("as measured, before normalising: set-up %.3f s, %.2f steps/s, step p50 %.1f ms, p90 %.1f ms; reference kernel %.0f us (median over epochs; nominal %d us)",
		median(setups), one.stepsPerSecond(one.epochDur),
		percentile(durationsMS(one.stepDur), 50), percentile(durationsMS(one.stepDur), 90),
		us(time.Duration(median(durationsNS(one.epochRef)))), refNominal/time.Microsecond)
	return nil
}

// checkLosses applies the training correctness checks: the loss trace
// is finite, its last epoch's mean is below its first's, and a second
// trainer from the same seed with Workers = PInter = nproc (at the
// process's full GOMAXPROCS) reproduces it bit for bit over a warm-up
// and two more epochs.
func checkLosses(rc *runCtx, ts trainSpec, one *trainRun, ds *gsgcn.Dataset) error {
	for i, l := range one.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			rc.check(false, "loss at step %d is %v", i, l)
			break
		}
	}
	first, last := meanOf(one.losses[:one.perEpoch]), meanOf(one.losses[len(one.losses)-one.perEpoch:])
	rc.check(last < first, "loss did not fall: first epoch %v, last epoch %v", first, last)

	par, _, err := newTrainRun(ts, rc.nproc, rc.seed, ds)
	if err != nil {
		return err
	}
	par.epochs(rc, 0, 2, rc.tr, "train_nproc")
	n := len(par.losses)
	if len(one.losses) < n {
		n = len(one.losses)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(par.losses[i]) != math.Float64bits(one.losses[i]) {
			rc.check(false, "loss at step %d differs: %v at 1 worker, %v at %d workers",
				i, one.losses[i], par.losses[i], rc.nproc)
			break
		}
	}
	rc.ops(int64(len(one.losses)+len(par.losses)), nil)
	rc.note("loss %.4f -> %.4f over %d steps; %d steps identical bit for bit at 1 and %d workers",
		first, last, len(one.losses), n, rc.nproc)
	if rc.traced() {
		epochS, epochW1 := median(secondsOf(par.epochDur)), median(secondsOf(one.epochDur))
		rc.set("core.epoch_s", epochS, len(par.epochDur))
		rc.set("perf.speedup", epochW1/epochS, len(par.epochDur))
		rc.set("perf.efficiency", epochW1/epochS/float64(rc.nproc), len(par.epochDur))
	}
	return nil
}

// traceTrain is the traced run of a training workload: the one-core
// epochs once without and once with spans, evaluation, the all-cores
// epochs of the loss check, then the per-layer numbers from the
// trainer's own timer segments and from direct calls into the leaf
// packages on this workload's shapes.
func traceTrain(rc *runCtx, ts trainSpec, one *trainRun, ds *gsgcn.Dataset, total time.Duration, restore func()) error {
	// Untraced epochs first, with the memory and timer accounting.
	one.tr.Timer.Reset()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	one.epochs(rc, total*30/100, 2, nil, "")
	runtime.ReadMemStats(&m1)
	plain := len(one.epochDur)
	plainSteps := float64(len(one.stepDur))
	seg := one.tr.Timer.Segments()
	stepMS := durationsMS(one.stepDur)
	stepSum := meanOf(stepMS) * plainSteps
	sampling, featprop, weight := ms(seg["sampling"]), ms(seg["featprop"]), ms(seg["weight"])

	// The same trainer again, every epoch and step a span.
	one.epochs(rc, total*30/100, 2, rc.tr, "train")
	evals := one.evaluate(rc, ds, total*10/100, 2)

	rc.set("core.epoch_w1_s", median(secondsOf(one.epochDur[:plain])), plain)
	rc.set("core.eval_s", median(evals)/1000, len(evals))
	rc.set("core.step_ms_p50", percentile(stepMS, 50), len(stepMS))
	rc.set("core.step_ms_p90", percentile(stepMS, 90), len(stepMS))
	rc.set("core.other_ms_per_step", (stepSum-sampling-featprop-weight)/plainSteps, len(stepMS))
	rc.set("core.allocs_per_step", float64(m1.Mallocs-m0.Mallocs)/plainSteps, len(stepMS))
	rc.set("core.alloc_mb_per_step", float64(m1.TotalAlloc-m0.TotalAlloc)/plainSteps/(1<<20), len(stepMS))
	rc.set("core.gc_pause_ms_per_epoch", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/float64(plain), plain)
	rc.set("core.loss_first", meanOf(one.losses[:one.perEpoch]), one.perEpoch)
	rc.set("core.loss_last", meanOf(one.losses[len(one.losses)-one.perEpoch:]), one.perEpoch)
	rc.set("sampler.wait_ms_per_step", sampling/plainSteps, len(stepMS))
	rc.set("partition.featprop_ms_per_step", featprop/plainSteps, len(stepMS))
	rc.set("mat.weight_ms_per_step", weight/plainSteps, len(stepMS))
	rc.set("trace.overhead_ratio", one.stepsPerSecond(one.epochDur[:plain])/one.stepsPerSecond(one.epochDur[plain:]), len(one.epochDur)-plain)
	rc.note("share of a one-core step: sampling wait %.1f%%, featprop %.1f%%, weight %.1f%%, other %.1f%%",
		100*sampling/stepSum, 100*featprop/stepSum, 100*weight/stepSum, 100*(stepSum-sampling-featprop-weight)/stepSum)

	// One core for the direct kernel timings too (workers = 1), then
	// all cores for the loss check and the scaling numbers.
	if err := traceTrainKernels(rc, one, ds); err != nil {
		return err
	}
	traceHost(rc)
	restore()
	traceDispatch(rc)
	return checkLosses(rc, ts, one, ds)
}
