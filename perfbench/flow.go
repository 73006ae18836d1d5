package main

import (
	"bytes"
	"errors"

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

// Flow workload sizes: flowFrames frames make one timed RunFlowWS call;
// flowReplay bursts are captured and decoded one by one in the traced
// run.
const (
	flowFrames   = 1000
	flowReplay   = 3000
	flowOverhead = 600
	flowLoad     = 1.2 // offered load over channel capacity: E18's top point
)

// flowLink builds the flow's link, channel and configuration.
func flowLink() (*core.Link, units.ReaderBandwidth, stream.FlowConfig, error) {
	l, err := core.NewDefaultLink(units.FeetToMeters(rangeFt))
	if err != nil {
		return nil, units.ReaderBandwidth{}, stream.FlowConfig{}, err
	}
	bw := l.Reader.Bandwidths[0]
	capacity := bw.BandwidthHz * units.OOKSpectralEfficiency / float64(tag.BurstSymbolCount(shortFrameBytes))
	return l, bw, stream.FlowConfig{Tags: 4, Window: 4, FrameBytes: shortFrameBytes, MaxRetries: 2,
		OfferedFPS: flowLoad * capacity}, nil
}

// runFlowOnce runs one flow over a fresh link on one goroutine and
// checks its accounting.
func runFlowOnce(ws *dsp.Workspace, seed uint64, frames int) (stream.FlowResult, error) {
	l, bw, cfg, err := flowLink()
	if err != nil {
		return stream.FlowResult{}, err
	}
	r, err := stream.RunFlowWS(ws, l, bw, frames, cfg, rng.New(seed))
	if err != nil {
		return r, err
	}
	if r.FramesOffered != frames || r.FramesDelivered+r.Drops != frames {
		return r, checkf("flow offered %d, delivered %d, dropped %d of %d frames",
			r.FramesOffered, r.FramesDelivered, r.Drops, frames)
	}
	return r, nil
}

func setupFlow(o opts) error {
	_, err := runFlowOnce(dsp.NewWorkspace(), o.seed, 1)
	return err
}

func runFlow(o opts) (*result, error) {
	ws := dsp.NewWorkspace()
	first, err := runFlowOnce(ws, o.seed, flowFrames)
	if err != nil {
		return nil, err
	}
	// The traced run spends a quarter of its time on timed flow runs,
	// one span each, as the reference for the per-transmission figures.
	rec, seconds := &recorder{}, o.seconds
	if o.trace {
		rec, seconds = newRecorder(), o.seconds/4
	}
	res := &result{}
	runs := 0
	samples, err := repeatFor(seconds, 3, func() (int, float64, error) {
		id := rec.begin("stream.flow_run", batchTrace(runs), -1)
		r, err := runFlowOnce(ws, o.seed, flowFrames)
		rec.end(id)
		runs++
		if err != nil {
			return 0, 0, err
		}
		if r != first {
			return 0, 0, checkf("repeated flow at the same seed differs:\n%+v\n%+v", r, first)
		}
		return r.Transmissions, r.SpanS, nil
	})
	if err != nil {
		return nil, err
	}
	if !o.trace {
		throughput(res, samples, "transmissions")
		namedFigures(res, samples, first.FramesOffered, first.FramesOffered-first.Drops)
		return res, nil
	}
	return traceFlow(o, rec, res, samples, first)
}

func traceFlow(o opts, rec *recorder, res *result, samples []opSample, first stream.FlowResult) (*result, error) {
	var rtf []float64
	var tx, gcs float64
	for _, s := range samples {
		rtf = append(rtf, s.ownWall()/s.simSeconds)
		tx += float64(s.ops)
		gcs += s.gcCycles
	}
	res.count("mac.retransmit_ratio", float64(first.Retransmissions)/float64(first.Transmissions))
	res.count("frame_loss_ratio", float64(first.Drops)/float64(first.FramesOffered))
	res.count("stream.realtime_factor", median(rtf))
	res.count("runtime.gc_cycles_per_kframe", 1000*gcs/tx)

	counts, err := replayFlow(rec, o.seed)
	if err != nil {
		return nil, err
	}
	counts.report(res)
	b, err := newFlowBurst(o.seed)
	if err != nil {
		return nil, err
	}
	overhead, err := tracingOverhead(flowOverhead, func(rec *recorder, i int) error {
		_, err := b.step(rec, i, -1)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.count("trace.overhead_ratio", overhead)

	for _, name := range []string{"dsp.moving_average", "dsp.xcorr_real", "phy.detect_burst",
		"core.capture", "reader.decode_burst"} {
		res.timing(name+"_us", rec.durations(name))
	}
	// Per transmission: a flow run's span over its transmissions, and
	// that minus the mean capture and decode (window, reorder and DES
	// bookkeeping).
	var txUS, overheadUS []float64
	perBurst := mean(rec.durations("core.capture")) + mean(rec.durations("reader.decode_burst"))
	for _, us := range rec.durations("stream.flow_run") {
		us /= float64(first.Transmissions)
		txUS = append(txUS, us)
		overheadUS = append(overheadUS, us-perBurst)
	}
	res.timing("stream.flow_tx_us", txUS)
	res.timing("stream.flow_overhead_us", overheadUS)
	path, err := rec.write(o)
	if err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(rec.spans), path)
	res.attempted = flowReplay
	return res, nil
}

// flowBurst captures and decodes one fresh 64 B burst at the flow's
// operating point, the work RunFlowWS does per transmission.
type flowBurst struct {
	l       *core.Link
	bw      units.ReaderBandwidth
	w       phy.Waveform
	ws      *dsp.Workspace
	src     *rng.Source
	payload []byte
}

func newFlowBurst(seed uint64) (*flowBurst, error) {
	l, bw, _, err := flowLink()
	if err != nil {
		return nil, err
	}
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		return nil, err
	}
	return &flowBurst{l: l, bw: bw, w: w, ws: dsp.NewWorkspace(), src: rng.New(seed),
		payload: make([]byte, shortFrameBytes)}, nil
}

// rx is one captured and decoded burst. samples stay valid until the
// next step; decErr is the decoder's per-burst failure, if any.
type rx struct {
	samples []complex128
	dec     *frame.Decoded
	stats   reader.RxStats
	decErr  error
}

// step captures and decodes burst i.
func (b *flowBurst) step(rec *recorder, i int, parent int32) (rx, error) {
	b.ws.Reset()
	b.src.Bytes(b.payload)
	id := rec.begin("core.capture", int32(i), parent)
	c, err := b.l.CaptureWaveformWS(b.ws, b.payload, frame.MCSOOK, b.bw, b.src)
	rec.end(id)
	if err != nil {
		return rx{}, err
	}
	id = rec.begin("reader.decode_burst", int32(i), parent)
	d, stats, decErr := reader.DecodeBurstWS(b.ws, c.Samples, b.w)
	rec.end(id)
	return rx{samples: c.Samples, dec: d, stats: stats, decErr: decErr}, nil
}

// replayFlow captures and decodes flowReplay bursts at the flow's
// operating point from the flow's seed, one trace per burst, and times
// sync and its kernels on each capture.
func replayFlow(rec *recorder, seed uint64) (failureCounts, error) {
	var c failureCounts
	b, err := newFlowBurst(seed)
	if err != nil {
		return c, err
	}
	kernels := newSyncKernels(b.w)
	want := 16*core.SamplesPerSymbol + len(phy.Preamble13)*b.w.SPS
	for i := 0; i < flowReplay; i++ {
		root := rec.begin("stream.flow_burst", int32(i), -1)
		r, err := b.step(rec, i, root)
		if err != nil {
			return c, err
		}
		oc := decoded
		switch {
		case errors.Is(r.decErr, reader.ErrSync):
			oc = syncError
		case r.decErr != nil:
			oc = frameError
		case !r.dec.Trailer.OK:
			oc = crcFailure
		case !bytes.Equal(r.dec.Payload.Data, b.payload):
			return c, checkf("burst %d passed its CRC with a wrong payload", i)
		}
		if oc != syncError && r.stats.SyncOffset != want {
			c.mislocks++
		}
		c.by[oc]++
		kernels.ws.Reset()
		id := rec.begin("phy.detect_burst", int32(i), root)
		_, _, _ = b.w.DetectBurstWS(kernels.ws, r.samples, 0) // timed only; outcome counted above
		rec.end(id)
		kernels.run(rec, int32(i), root, r.samples)
		rec.end(root)
	}
	return c, nil
}
