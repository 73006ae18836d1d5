package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/stream"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// The session operating point is E18's: 2 ft on the 2 GHz channel.
const (
	rangeFt         = 2
	shortFrameBytes = 64
	longFrameBytes  = 1024
)

// sessionSizes fixes the amount of work per frame size. batch frames
// make one timed RunSession call; replay frames are decoded stage by
// stage in the traced run (their failure counts are exact at a seed);
// pipeBursts are held in memory for the Pipeline.Run measurement.
type sessionSizes struct{ batch, replay, pipeBursts, overheadFrames int }

func sizesFor(frameBytes int) sessionSizes {
	if frameBytes == longFrameBytes {
		return sessionSizes{batch: 160, replay: 600, pipeBursts: 24, overheadFrames: 40}
	}
	return sessionSizes{batch: 2000, replay: 3000, pipeBursts: 256, overheadFrames: 600}
}

func sessionConfig(o opts, frameBytes, frames int) stream.SessionConfig {
	return stream.SessionConfig{Frames: frames, FrameBytes: frameBytes, RangeFt: rangeFt,
		Seed: o.seed, Workers: o.nproc}
}

func setupSession(o opts, frameBytes int) error {
	r, err := stream.RunSession(sessionConfig(o, frameBytes, 1))
	if err == nil && r.Frames != 1 {
		err = fmt.Errorf("session folded %d frames, want 1", r.Frames)
	}
	return err
}

// deterministic drops the schedule-dependent fields of a session result.
func deterministic(r stream.SessionResult) stream.SessionResult {
	r.WallSeconds, r.WallFPS = 0, 0
	r.Pipeline = stream.PipelineStats{}
	return r
}

// checkedSession runs one session and applies the per-session checks.
func checkedSession(cfg stream.SessionConfig) (stream.SessionResult, error) {
	r, err := stream.RunSession(cfg)
	if err != nil {
		return r, err
	}
	if r.PayloadErrors != 0 {
		return r, checkf("session delivered %d frames whose payload differs from the transmitted one", r.PayloadErrors)
	}
	if r.Frames != cfg.Frames {
		return r, checkf("session folded %d of %d frames", r.Frames, cfg.Frames)
	}
	return r, nil
}

func runSession(o opts, frameBytes int) (*result, error) {
	sz := sizesFor(frameBytes)
	cfg := sessionConfig(o, frameBytes, sz.batch)
	// Warm-up batch, checked against the Workers: 1 reference stream.
	first, err := checkedSession(cfg)
	if err != nil {
		return nil, err
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := checkedSession(serialCfg)
	if err != nil {
		return nil, err
	}
	if deterministic(first) != deterministic(serial) {
		return nil, checkf("session at %d workers differs from Workers: 1:\n%+v\n%+v",
			o.nproc, deterministic(first), deterministic(serial))
	}
	if o.trace {
		return traceSession(o, frameBytes, cfg)
	}
	res := &result{}
	samples, err := repeatFor(o.seconds, 3, func() (int, float64, error) {
		r, err := checkedSession(cfg)
		if err != nil {
			return 0, 0, err
		}
		if deterministic(r) != deterministic(first) {
			return 0, 0, checkf("repeated session at the same seed differs")
		}
		return r.Frames, r.AirTimeS, nil
	})
	if err != nil {
		return nil, err
	}
	throughput(res, samples, "frames")
	namedFigures(res, samples, first.Frames, first.Decoded)
	return res, nil
}

// namedFigures prints the frame workloads' figures under the names
// README.md gives them.
func namedFigures(res *result, samples []opSample, frames, delivered int) {
	var fps, fpc, rtf, alloc []float64
	for _, s := range samples {
		fps = append(fps, float64(s.ops)/s.ownWall())
		fpc = append(fpc, float64(s.ops)/s.cpu)
		rtf = append(rtf, s.ownWall()/s.simSeconds)
		alloc = append(alloc, s.allocBytes/float64(s.ops))
	}
	res.note("frames_per_s %.1f frames/s", median(fps))
	res.note("frames_per_cpu_s %.1f frames/CPU-s", median(fpc))
	res.note("realtime_factor %.1f wall s/simulated s", median(rtf))
	res.note("frame_loss_ratio %.5f ratio (%d of %d frames lost)", 1-float64(delivered)/float64(frames),
		frames-delivered, frames)
	res.note("alloc_bytes_per_frame %.0f B/frame", median(alloc))
}

// sessionGen reproduces stream.RunSession's frame generator from the
// public packages, so the traced run can time each stage on exactly the
// bursts the session decodes (checked against RunSession's counts).
type sessionGen struct {
	w          phy.Waveform
	shape      stream.Shape
	frameBytes int
	tagID      uint16
	seq        rng.Sequence
	syncOffset int // DetectBurstWS's offset on a correct lock
	gen        stream.Gen
}

func newSessionGen(frameBytes int, seed uint64) (*sessionGen, error) {
	l, err := core.NewDefaultLink(units.FeetToMeters(rangeFt))
	if err != nil {
		return nil, err
	}
	bw := l.Reader.Bandwidths[0]
	b, err := l.ComputeBudget()
	if err != nil {
		return nil, err
	}
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		return nil, err
	}
	shape, err := stream.NewShape(w, frameBytes)
	if err != nil {
		return nil, err
	}
	ookLeak := l.Tag.OOKLeakage(b.TagBearingRad, l.Reader.FreqHz)
	amp := math.Sqrt(units.DBmToWatts(b.ReceivedDBm))
	carrier := cmplx.Rect(amp, -0.4)
	leak := cmplx.Rect(math.Sqrt(units.DBmToWatts(l.Reader.SelfInterferenceDBm())), 0.9)
	symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
	sampleRate := symbolRate * core.SamplesPerSymbol
	noiseW := units.DBmToWatts(units.ThermalNoiseDensityDBmHz(l.Reader.TemperatureK)+
		l.Reader.NoiseFigureDB)*sampleRate +
		units.DBmToWatts(l.Reader.ResidualLeakageDBm())
	burstSyms := tag.BurstSymbolCount(frameBytes)
	lead := 16 * core.SamplesPerSymbol
	rxLen := burstSyms*core.SamplesPerSymbol + 40*core.SamplesPerSymbol
	g := &sessionGen{w: w, shape: shape, frameBytes: frameBytes, tagID: l.Tag.ID,
		seq: rng.NewSequence(seed), syncOffset: lead + len(phy.Preamble13)*w.SPS}
	g.gen = func(ws *dsp.Workspace, i int, dst []complex128) ([]complex128, error) {
		src := g.seq.At(uint64(i))
		payload := src.Bytes(ws.Bytes(frameBytes))
		rawLen := frame.HeaderLen + frameBytes + frame.CRCLen
		raw, err := frame.AppendEncode(ws.Bytes(rawLen)[:0], g.tagID, frame.MCSOOK, payload)
		if err != nil {
			return nil, err
		}
		bits := frame.BitsFromBytes(ws.Bytes(8*rawLen), raw)
		syms := phy.AppendPreambleSymbols(ws.Complex(burstSyms)[:0], ookLeak)
		syms, err = (phy.OOK{Leakage: ookLeak}).Modulate(syms, bits)
		if err != nil {
			return nil, err
		}
		tx := w.SynthesizeWS(ws, syms)
		if cap(dst) < rxLen {
			dst = make([]complex128, rxLen)
		}
		dst = dst[:rxLen]
		for k := range dst {
			dst[k] = leak
		}
		for k, v := range tx {
			dst[lead+k] += v * carrier
		}
		src.AWGN(dst, noiseW)
		pre := lead / 2
		var mean complex128
		for _, v := range dst[:pre] {
			mean += v
		}
		mean /= complex(float64(pre), 0)
		for k := range dst {
			dst[k] -= mean
		}
		return dst, nil
	}
	return g, nil
}

// outcome classifies one decoded frame the way RunSession's fold does.
type outcome int

const (
	decoded outcome = iota
	syncError
	frameError
	crcFailure
	payloadError
)

func (g *sessionGen) classify(f stream.Frame, truthBuf []byte) outcome {
	switch {
	case errors.Is(f.Err, reader.ErrSync):
		return syncError
	case f.Err != nil:
		return frameError
	case !f.OK:
		return crcFailure
	case f.TagID != g.tagID || !bytes.Equal(g.seq.At(uint64(f.Index)).Bytes(truthBuf), f.Payload):
		return payloadError
	}
	return decoded
}

// failureCounts tallies outcomes and mislocks over a replay.
type failureCounts struct {
	mislocks int
	by       [payloadError + 1]int
}

func (c *failureCounts) report(res *result) {
	res.count("phy.mislocks", float64(c.mislocks))
	res.count("reader.sync_errors", float64(c.by[syncError]))
	res.count("reader.frame_errors", float64(c.by[frameError]))
	res.count("reader.crc_failures", float64(c.by[crcFailure]))
}

// syncKernels times DetectBurstWS's two inner kernels, the
// symbol-length moving average and the envelope/template correlation,
// with the arguments DetectBurstWS passes them.
type syncKernels struct {
	ws   *dsp.Workspace
	sps  int
	tmpl []float64 // the upsampled zero-mean preamble template
}

func newSyncKernels(w phy.Waveform) *syncKernels {
	n, sps := len(phy.Preamble13), w.SPS
	chips := make([]float64, n)
	var mean float64
	for i, c := range phy.Preamble13 {
		if c > 0 {
			chips[i] = 1
		}
		mean += chips[i]
	}
	mean /= float64(n)
	tmpl := make([]float64, (n-1)*sps+1)
	for k := range chips {
		tmpl[k*sps] = chips[k] - mean
	}
	return &syncKernels{ws: dsp.NewWorkspace(), sps: sps, tmpl: tmpl}
}

func (k *syncKernels) run(rec *recorder, trace, parent int32, samples []complex128) {
	k.ws.Reset()
	id := rec.begin("dsp.moving_average", trace, parent)
	avg := dsp.MovingAverageInto(k.ws.Complex(len(samples)), samples, k.sps)
	rec.end(id)
	env := dsp.MagnitudesInto(k.ws.Float(len(samples)), avg)
	id = rec.begin("dsp.xcorr_real", trace, parent)
	dsp.XCorrRealWS(k.ws, env, k.tmpl)
	rec.end(id)
}

// sessionStages times the decode stages and sync kernels one by one on
// one burst, with the same calls and arguments stream.Decoder makes.
type sessionStages struct {
	g       *sessionGen
	ws      *dsp.Workspace
	kernels *syncKernels
	dec     []complex128
	raw     []byte
	truth   []byte
}

func newSessionStages(g *sessionGen) *sessionStages {
	return &sessionStages{g: g, ws: dsp.NewWorkspace(), kernels: newSyncKernels(g.w),
		truth: make([]byte, g.frameBytes)}
}

// run times sync, demod, decide, SNR and deframe on frame i, then the
// two sync kernels, as children of parent. It returns the stage-level
// outcome and the sync offset.
func (st *sessionStages) run(rec *recorder, i int, parent int32, samples []complex128) (outcome, int) {
	ws, w, trace := st.ws, st.g.w, int32(i)
	ws.Reset()
	id := rec.begin("phy.detect_burst", trace, parent)
	off, _, err := w.DetectBurstWS(ws, samples, 0)
	rec.end(id)
	oc := decoded
	if err != nil {
		oc = syncError
	}
	if oc == decoded {
		ws.Reset()
		id = rec.begin("phy.matched_filter", trace, parent)
		d, err := w.MatchedFilterWS(ws, samples, off, st.g.shape.DataSymbols())
		rec.end(id)
		if err != nil {
			oc = frameError
		}
		st.dec = append(st.dec[:0], d...)
	}
	if oc == decoded {
		ws.Reset()
		id = rec.begin("reader.decide_ook", trace, parent)
		bits, _, err := reader.DecideOOKWS(ws, st.dec)
		rec.end(id)
		if err != nil {
			oc = frameError
		}
		if oc == decoded {
			id = rec.begin("phy.measure_snr", trace, parent)
			_, _ = phy.MeasureSNRWS(ws, st.dec) // an inestimable SNR is not a decode failure
			rec.end(id)
			id = rec.begin("frame.deframe", trace, parent)
			var d frame.Decoded
			st.raw, err = frame.AppendBytesFromBits(st.raw[:0], bits)
			if err == nil {
				err = (&frame.Parser{}).Decode(st.raw, &d)
			}
			rec.end(id)
			switch {
			case err != nil:
				oc = frameError
			case !d.Trailer.OK:
				oc = crcFailure
			case d.Header.TagID != st.g.tagID ||
				!bytes.Equal(st.g.seq.At(uint64(i)).Bytes(st.truth), d.Payload.Data):
				oc = payloadError
			}
		}
	}
	st.kernels.run(rec, trace, parent, samples)
	return oc, off
}

// stageSpans are the five decode stages stream.Decoder.Decode runs.
var stageSpans = []string{"phy.detect_burst", "phy.matched_filter", "reader.decide_ook",
	"phy.measure_snr", "frame.deframe"}

// Frame and grid-pass traces are numbered from 0; batchTrace numbers
// the spans of whole batches (sessions, flow runs, grid blocks) and
// pipeTrace the Pipeline.Run calls, so the ranges never collide.
func batchTrace(k int) int32 { return int32(1<<24 + k) }
func pipeTrace(k int) int32  { return int32(1<<25 + k) }

func traceSession(o opts, frameBytes int, cfg stream.SessionConfig) (*result, error) {
	sz := sizesFor(frameBytes)
	res := &result{}
	rec := newRecorder()

	// Untraced batches: pipeline high-water marks, real-time
	// factor and GC rate of the workload as measured end to end.
	var queueMax [5]int
	inFlight := 0
	samples, err := repeatFor(o.seconds/4, 2, func() (int, float64, error) {
		r, err := checkedSession(cfg)
		if err != nil {
			return 0, 0, err
		}
		for i, q := range r.Pipeline.QueueMax {
			queueMax[i] = max(queueMax[i], q)
		}
		inFlight = max(inFlight, r.Pipeline.InFlightMax)
		return r.Frames, r.AirTimeS, nil
	})
	if err != nil {
		return nil, err
	}
	var rtf []float64
	var frames, gcs float64
	for _, s := range samples {
		rtf = append(rtf, s.ownWall()/s.simSeconds)
		frames += float64(s.ops)
		gcs += s.gcCycles
	}
	for i, name := range stream.QueueNames() {
		res.count("stream.queue_max."+name, float64(queueMax[i]))
	}
	res.count("stream.in_flight_max", float64(inFlight))
	res.count("stream.realtime_factor", median(rtf))
	res.count("runtime.gc_cycles_per_kframe", 1000*gcs/frames)

	// The same session at Workers: 1, one span per batch.
	serialCfg := cfg
	serialCfg.Workers = 1
	var serialFrameUS []float64
	for k := 0; k < 3; k++ {
		id := rec.begin("stream.session_serial", batchTrace(k), -1)
		r, err := checkedSession(serialCfg)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		serialFrameUS = append(serialFrameUS, rec.spans[id].us()/float64(r.Frames))
	}

	// Stage-by-stage replay of the first sz.replay frames.
	g, err := newSessionGen(frameBytes, o.seed)
	if err != nil {
		return nil, err
	}
	counts, err := replaySession(rec, g, sz.replay)
	if err != nil {
		return nil, err
	}
	ref, err := checkedSession(sessionConfig(o, frameBytes, sz.replay))
	if err != nil {
		return nil, err
	}
	got := [...]int{counts.by[decoded], counts.by[syncError], counts.by[frameError], counts.by[crcFailure]}
	want := [...]int{ref.Decoded, ref.SyncFailures, ref.DecodeErrors, ref.CRCFailures}
	if got != want {
		return nil, checkf("replayed frames decode as %v, RunSession as %v (decoded, sync, frame, crc)", got, want)
	}
	counts.report(res)
	res.count("frame_loss_ratio", 1-float64(ref.Decoded)/float64(ref.Frames))

	overhead, err := tracingOverhead(sz.overheadFrames, sessionStep(g))
	if err != nil {
		return nil, err
	}
	res.count("trace.overhead_ratio", overhead)

	if err := tracePipeline(o, rec, g, sz); err != nil {
		return nil, err
	}

	// Per-layer metrics, all derived from the spans.
	for _, name := range []string{"dsp.moving_average", "dsp.xcorr_real", "phy.detect_burst",
		"phy.matched_filter", "reader.decide_ook", "phy.measure_snr", "frame.deframe",
		"stream.gen", "stream.decoder_frame", "stream.pipeline_fold_wait"} {
		res.timing(layerName(name), rec.durations(name))
	}
	decoder := rec.byTrace("stream.decoder_frame")
	stageSum := map[int32]float64{}
	for _, name := range stageSpans {
		for t, us := range rec.byTrace(name) {
			stageSum[t] += us
		}
	}
	var unattributed []float64
	for t, us := range decoder {
		unattributed = append(unattributed, us-stageSum[t])
	}
	res.timing("stream.decoder_unattributed_us", unattributed)
	res.timing("stream.session_serial_frame_us", serialFrameUS)
	decMean := mean(rec.durations("stream.decoder_frame"))
	var genFold []float64
	for _, us := range serialFrameUS {
		genFold = append(genFold, us-decMean)
	}
	res.timing("stream.gen_fold_us", genFold)
	var pipeFrameUS []float64
	for _, us := range rec.durations("stream.pipeline_run") {
		pipeFrameUS = append(pipeFrameUS, us/float64(pipelineFrames(sz)))
	}
	res.timing("stream.pipeline_frame_us", pipeFrameUS)
	res.count("stream.pipeline_speedup", median(rec.durations("stream.decoder_frame"))/median(pipeFrameUS))

	// Ladder closure on means: serial frame = gen + five stages +
	// decoder glue + fold and session bookkeeping (the residual).
	stagesMean := 0.0
	for _, name := range stageSpans {
		stagesMean += mean(rec.durations(name))
	}
	genMean := mean(rec.durations("stream.gen"))
	serialMean := mean(serialFrameUS)
	residual := serialMean - genMean - decMean
	res.count("stream.ladder_residual_us", residual)
	res.note("ladder (mean µs/frame): serial %.2f = gen %.2f + stages %.2f + decoder unattributed %.2f + fold/bookkeeping residual %.2f",
		serialMean, genMean, stagesMean, decMean-stagesMean, residual)

	path, err := rec.write(o)
	if err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(rec.spans), path)
	res.attempted = sz.replay
	return res, nil
}

// layerName maps a span name to its per-layer metric name.
func layerName(span string) string {
	if span == "stream.pipeline_fold_wait" {
		return "stream.fold_wait_us"
	}
	return span + "_us"
}

// replaySession generates and decodes frames 0..n-1 of the session's
// stream: stream.Decoder.Decode for the whole decode, then each stage
// and sync kernel on its own. Frame i's spans share trace id i.
func replaySession(rec *recorder, g *sessionGen, n int) (failureCounts, error) {
	var c failureCounts
	genWS := dsp.NewWorkspace()
	dec := stream.NewDecoder(g.shape)
	st := newSessionStages(g)
	truth := make([]byte, g.frameBytes)
	var buf []complex128
	for i := 0; i < n; i++ {
		trace := int32(i)
		root := rec.begin("stream.frame", trace, -1)
		genWS.Reset()
		id := rec.begin("stream.gen", trace, root)
		samples, err := g.gen(genWS, i, buf)
		rec.end(id)
		if err != nil {
			return c, err
		}
		buf = samples
		id = rec.begin("stream.decoder_frame", trace, root)
		f := dec.Decode(i, samples)
		rec.end(id)
		oc := g.classify(f, truth)
		stageOC, off := st.run(rec, i, root, samples)
		rec.end(root)
		if oc == payloadError {
			return c, checkf("frame %d decoded with a wrong payload", i)
		}
		if stageOC != oc || (oc != syncError && off != f.SyncOffset) {
			return c, checkf("frame %d: stage replay (outcome %d, offset %d) differs from the decoder (outcome %d, offset %d)",
				i, stageOC, off, oc, f.SyncOffset)
		}
		if oc != syncError && f.SyncOffset != g.syncOffset {
			c.mislocks++
		}
		c.by[oc]++
	}
	return c, nil
}

// tracingOverhead runs step over n frames with span recording off and
// on, three times each alternately, and returns untraced over traced
// frames/s.
func tracingOverhead(n int, step func(rec *recorder, i int) error) (float64, error) {
	rec := newRecorder()
	loop := func(on bool) (float64, error) {
		rec.on = on
		rec.spans = rec.spans[:0]
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := step(rec, i); err != nil {
				return 0, err
			}
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}
	var off, on []float64
	for k := 0; k < 3; k++ {
		a, err := loop(false)
		if err != nil {
			return 0, err
		}
		b, err := loop(true)
		if err != nil {
			return 0, err
		}
		off, on = append(off, a), append(on, b)
	}
	return median(off) / median(on), nil
}

// sessionStep is the session's traced inner loop for tracingOverhead:
// generate frame i, then Decoder.Decode it.
func sessionStep(g *sessionGen) func(rec *recorder, i int) error {
	ws := dsp.NewWorkspace()
	dec := stream.NewDecoder(g.shape)
	var buf []complex128
	return func(rec *recorder, i int) error {
		ws.Reset()
		id := rec.begin("stream.gen", int32(i), -1)
		s, err := g.gen(ws, i, buf)
		rec.end(id)
		if err != nil {
			return err
		}
		buf = s
		id = rec.begin("stream.decoder_frame", int32(i), -1)
		dec.Decode(i, s)
		rec.end(id)
		return nil
	}
}

// pipelineLaps is how many times each Pipeline.Run cycles through the
// pre-captured bursts.
const pipelineLaps = 4

func pipelineFrames(sz sessionSizes) int { return sz.pipeBursts * pipelineLaps }

// tracePipeline runs stream.Pipeline at nproc workers over pre-captured
// bursts (so generation cost is excluded), timing each Run and the gap
// between consecutive fold callbacks, and checks every folded frame
// against the serial decoder's result for the same burst.
func tracePipeline(o opts, rec *recorder, g *sessionGen, sz sessionSizes) error {
	ws := dsp.NewWorkspace()
	dec := stream.NewDecoder(g.shape)
	bursts := make([][]complex128, sz.pipeBursts)
	want := make([]stream.Frame, sz.pipeBursts)
	wantPayload := make([][]byte, sz.pipeBursts)
	for i := range bursts {
		ws.Reset()
		s, err := g.gen(ws, i, nil)
		if err != nil {
			return err
		}
		bursts[i] = s
		want[i] = dec.Decode(i, s)
		wantPayload[i] = append([]byte(nil), want[i].Payload...)
	}
	p := stream.NewPipeline(g.shape, stream.Config{Workers: o.nproc})
	gen := func(_ *dsp.Workspace, idx int, _ []complex128) ([]complex128, error) {
		return bursts[idx%len(bursts)], nil
	}
	n := pipelineFrames(sz)
	deadline := time.Now().Add(time.Duration(o.seconds / 6 * float64(time.Second)))
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		trace := pipeTrace(k)
		id := rec.begin("stream.pipeline_run", trace, -1)
		last := time.Time{}
		err := p.Run(n, gen, func(f *stream.Frame) error {
			now := time.Now()
			if !last.IsZero() {
				rec.add("stream.pipeline_fold_wait", last, now, trace, id)
			}
			last = now
			w := want[f.Index%len(want)]
			if (f.Err == nil) != (w.Err == nil) || f.OK != w.OK || f.SyncOffset != w.SyncOffset ||
				!bytes.Equal(f.Payload, wantPayload[f.Index%len(want)]) {
				return checkf("pipeline frame %d differs from the serial decoder", f.Index)
			}
			return nil
		})
		rec.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}
