package reader

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/phy"
)

// ErrSync reports that burst detection found no preamble; callers (and
// metrics) separate it from demodulation/framing failures with
// errors.Is.
var ErrSync = errors.New("reader: sync failed")

// ErrPipelineBusy reports a concurrent DecodeBurst/DecodeBurstBatch on
// one Pipeline. The shared workspace would be silently corrupted by
// interleaved Resets, so overlapping use is detected and refused instead;
// parallel decoders create one Pipeline per goroutine (or use
// internal/stream's stage-parallel pipeline).
var ErrPipelineBusy = errors.New("reader: pipeline already in use")

func init() {
	// The preamble metric is an unnormalized correlation peak at √W
	// amplitude scale (~1e-5 on the default link); decades cover it.
	obs.RegisterBuckets("reader_preamble_metric",
		1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)
}

// RxStats summarizes one burst reception.
type RxStats struct {
	// PreambleMetric is the sync correlation peak.
	PreambleMetric float64
	// Threshold is the adaptive OOK decision threshold used.
	Threshold float64
	// SNRdBEst is the decision-domain SNR estimate (NaN if inestimable).
	SNRdBEst float64
	// BitErrors counts header+payload bit flips when the caller knows the
	// truth (filled by the link layer, not here).
	BitErrors int
	// SyncOffset is the detected burst start in samples.
	SyncOffset int
	// Decisions are the slicer-input decision statistics of the final
	// decide pass. The slice is workspace-backed: valid only until the
	// owning workspace's next Reset (copy to keep).
	Decisions []complex128
	// Quality holds slicer-input quality scalars measured by the signal
	// tap; HasQuality reports whether a tap was active and the burst was
	// measurable. Without an active tap both stay zero — the measurement
	// is skipped entirely to keep the taps-disabled path free.
	Quality    phy.DecisionQuality
	HasQuality bool
}

// DecideOOK makes hard OOK decisions with an adaptive two-cluster
// threshold: it splits decision magnitudes at the midpoint of the
// extremes, recomputes the cluster means, and thresholds at their
// average. Self-interference and unknown channel gain shift both OOK
// levels; the adaptive threshold absorbs that, unlike a fixed one.
func DecideOOK(decisions []complex128) (bits []byte, threshold float64, err error) {
	return DecideOOKWS(nil, decisions)
}

// DecideOOKWS is DecideOOK with the magnitude and bit buffers checked
// out of ws; the returned bits are valid until the next ws.Reset. A nil
// ws allocates.
func DecideOOKWS(ws *dsp.Workspace, decisions []complex128) (bits []byte, threshold float64, err error) {
	if len(decisions) == 0 {
		return nil, 0, fmt.Errorf("reader: no decisions")
	}
	bits, threshold = sliceOOK(ws, phy.DecisionStatsWS(ws, decisions))
	return bits, threshold, nil
}

// sliceOOK thresholds st's magnitudes at the average of the two cluster
// means, or at the midpoint of the extremes when one cluster is empty
// (all one level). A magnitude at or above the threshold is reflecting,
// data '0' (paper §6); the bit is stored as the comparison's negation,
// not branched on, so a NaN still reads as '1'.
func sliceOOK(ws *dsp.Workspace, st phy.DecisionStats) (bits []byte, threshold float64) {
	threshold = st.Mid
	if st.NH != 0 && st.NL != 0 {
		threshold = (st.SumH/float64(st.NH) + st.SumL/float64(st.NL)) / 2
	}
	bits = ws.Bytes(len(st.Mags))[:len(st.Mags)] // no bounds check per bit
	for i, m := range st.Mags {
		var b byte
		if !(m >= threshold) {
			b = 1
		}
		bits[i] = b
	}
	return bits, threshold
}

// DecideASK4 makes hard 4-ASK decisions: it estimates the low and high
// amplitude rails from the extreme deciles, normalizes each decision into
// [0,1], and Gray-demaps with the nearest of the four uniform levels.
func DecideASK4(decisions []complex128) (bits []byte, err error) {
	return DecideASK4WS(nil, decisions)
}

// DecideASK4WS is DecideASK4 with the magnitude, sort, normalization and
// bit buffers checked out of ws (valid until the next ws.Reset; nil ws
// allocates).
func DecideASK4WS(ws *dsp.Workspace, decisions []complex128) (bits []byte, err error) {
	if len(decisions) == 0 {
		return nil, fmt.Errorf("reader: no decisions")
	}
	mags := dsp.MagnitudesInto(ws.Float(len(decisions)), decisions)
	sorted := ws.Float(len(mags))
	copy(sorted, mags)
	sort.Float64s(sorted)
	decile := len(sorted) / 10
	if decile < 1 {
		decile = 1
	}
	var lo, hi float64
	for i := 0; i < decile; i++ {
		lo += sorted[i]
		hi += sorted[len(sorted)-1-i]
	}
	lo /= float64(decile)
	hi /= float64(decile)
	span := hi - lo
	if span <= 0 {
		return nil, fmt.Errorf("reader: ASK rails degenerate")
	}
	norm := ws.Complex(len(mags))
	for i, m := range mags {
		norm[i] = complex((m-lo)/span, 0)
	}
	return (phy.ASK{M: 4}).Demodulate(ws.Bytes(2 * len(mags))[:0], norm), nil
}

// Pipeline is a reusable receive chain: it owns a dsp.Workspace so
// repeated DecodeBurst calls reuse every correlation, normalization and
// bit-slicing buffer instead of reallocating them per burst. A Pipeline
// is not safe for concurrent use; parallel sweeps create one per worker.
// Overlapping calls are detected (the in-use flag below) and fail with
// ErrPipelineBusy rather than corrupting the workspace.
type Pipeline struct {
	ws    *dsp.Workspace
	inUse atomic.Bool
}

// NewPipeline returns a receive pipeline with a fresh workspace.
func NewPipeline() *Pipeline { return &Pipeline{ws: dsp.NewWorkspace()} }

// Workspace exposes the pipeline's arena so callers that capture and
// decode in one frame (e.g. the link layer) can share it.
func (p *Pipeline) Workspace() *dsp.Workspace { return p.ws }

// DecodeBurst decodes one burst, recycling the previous call's buffers
// first. The returned frame references workspace memory: it is valid
// only until the next call on this pipeline (copy the payload out to
// keep it). A call overlapping another DecodeBurst/DecodeBurstBatch on
// the same pipeline fails with ErrPipelineBusy.
func (p *Pipeline) DecodeBurst(samples []complex128, w phy.Waveform) (*frame.Decoded, RxStats, error) {
	if !p.inUse.CompareAndSwap(false, true) {
		return nil, RxStats{}, ErrPipelineBusy
	}
	defer p.inUse.Store(false)
	p.ws.Reset()
	return DecodeBurstWS(p.ws, samples, w)
}

// DecodeBurstBatch decodes a batch of same-shaped bursts through this
// pipeline's single workspace. Ordering is part of the contract: visit
// is invoked exactly once per burst, in increasing index order (0, 1, …,
// len(bursts)-1), and each (frame, stats, err) triple is identical to
// what a one-at-a-time DecodeBurst loop over the same bursts would
// produce — batch decoding is an amortization, never a reordering (see
// TestDecodeBurstBatchOrderPinned). The workspace is Reset between
// bursts (recycling every scratch buffer) while its cached FFT plans
// survive, so the whole batch shares one set of twiddle tables and
// stabilized buffers — the per-burst decode is allocation-free after the
// first burst. The decoded frame and stats passed to visit reference
// workspace memory and are valid ONLY during that visit call; copy out
// anything that must be kept. A call overlapping another
// DecodeBurst/DecodeBurstBatch on the same pipeline fails with
// ErrPipelineBusy before visiting anything.
func (p *Pipeline) DecodeBurstBatch(bursts [][]complex128, w phy.Waveform, visit func(i int, f *frame.Decoded, stats RxStats, err error)) error {
	if !p.inUse.CompareAndSwap(false, true) {
		return ErrPipelineBusy
	}
	defer p.inUse.Store(false)
	for i, samples := range bursts {
		p.ws.Reset()
		f, stats, err := DecodeBurstWS(p.ws, samples, w)
		visit(i, f, stats, err)
	}
	return nil
}

// DecodeBurst runs the full receive pipeline on captured baseband
// samples: Barker sync, matched filtering, adaptive decisions, and
// layered frame decoding. After Sync, the header (always OOK) is probed
// first to learn the payload length and MCS, then the remainder of the
// burst is decoded with the scheme the header names — for OOK through
// Decide and Deframe over the whole burst.
func DecodeBurst(samples []complex128, w phy.Waveform) (*frame.Decoded, RxStats, error) {
	return DecodeBurstWS(nil, samples, w)
}

// DecodeBurstWS is DecodeBurst drawing every scratch buffer from ws. It
// never Resets ws — it composes with a caller that captured the samples
// from the same arena — so the returned frame's payload references ws
// memory and is valid only until the caller's next Reset. A nil ws
// allocates, which is exactly DecodeBurst.
func DecodeBurstWS(ws *dsp.Workspace, samples []complex128, w phy.Waveform) (*frame.Decoded, RxStats, error) {
	var stats RxStats
	span := obs.StartSpan("reader.decode")
	defer span.End()
	obs.Inc("reader_bursts_total")

	sync := span.StartChild("reader.sync")
	start, metric, err := Sync(ws, samples, w)
	sync.End()
	if err != nil {
		obs.Inc("reader_sync_failures_total")
		return nil, stats, err
	}
	stats.PreambleMetric = metric
	stats.SyncOffset = start
	if t := signal.Active(); t != nil {
		t.Sync(start, metric)
	}
	obs.Observe("reader_preamble_metric", metric)
	if event.Enabled() {
		event.Emit(0, event.LevelDebug, "reader.demod", "sync",
			event.F("metric", metric), event.D("start", start))
	}

	decide := span.StartChild("reader.decide")
	headerSyms := frame.HeaderLen * 8
	dec, err := w.MatchedFilterWS(ws, samples, start, headerSyms)
	if err != nil {
		decide.End()
		obs.Inc("reader_decode_errors_total", obs.L("stage", "decide"))
		return nil, stats, err
	}
	headerBits, thr, err := DecideOOKWS(ws, dec)
	if err != nil {
		decide.End()
		obs.Inc("reader_decode_errors_total", obs.L("stage", "decide"))
		return nil, stats, err
	}
	stats.Threshold = thr
	headerBytes, err := frame.AppendBytesFromBits(ws.Bytes(frame.HeaderLen)[:0], headerBits)
	if err != nil {
		decide.End()
		obs.Inc("reader_decode_errors_total", obs.L("stage", "decide"))
		return nil, stats, err
	}
	var hdr frame.Header
	// Decode against a padded view: the header parser wants to record a
	// payload slice even though we have not demodulated it yet.
	padded := ws.Bytes(frame.HeaderLen + 1)
	copy(padded, headerBytes)
	padded[frame.HeaderLen] = 0
	if err := hdr.DecodeFromBytes(padded); err != nil {
		decide.End()
		obs.Inc("reader_decode_errors_total", obs.L("stage", "header"))
		return nil, stats, fmt.Errorf("reader: header: %w", err)
	}

	restBits := (int(hdr.Length) + frame.CRCLen) * 8
	restSyms := restBits
	if hdr.MCS == frame.MCSASK4 {
		restSyms = restBits / 2
	}
	restStart := start + headerSyms*w.SPS
	decRest, err := w.MatchedFilterWS(ws, samples, restStart, restSyms)
	if err != nil {
		decide.End()
		obs.Inc("reader_decode_errors_total", obs.L("stage", "decide"))
		return nil, stats, err
	}

	var bits []byte
	switch hdr.MCS {
	case frame.MCSASK4:
		// Header decided on its own threshold; payload by 4-level rails.
		payloadBits, err := DecideASK4WS(ws, decRest)
		if err != nil {
			decide.End()
			obs.Inc("reader_decode_errors_total", obs.L("stage", "decide"))
			return nil, stats, err
		}
		bits = ws.Bytes(len(headerBits) + len(payloadBits))
		copy(bits, headerBits)
		copy(bits[len(headerBits):], payloadBits)
		stats.Decisions = decRest
		if t := signal.Active(); t != nil {
			stats.Quality, stats.HasQuality = t.SlicerInput(decRest, 0)
		}
		if snr, err := phy.MeasureSNRWS(ws, dec); err == nil {
			stats.SNRdBEst = snr
		} else {
			stats.SNRdBEst = math.NaN()
		}
	default:
		// Re-decide header and rest together so the threshold benefits
		// from the whole burst.
		all := ws.Complex(len(dec) + len(decRest))
		copy(all, dec)
		copy(all[len(dec):], decRest)
		var snr float64
		bits, thr, snr, err = Decide(ws, all)
		if err != nil {
			decide.End()
			obs.Inc("reader_decode_errors_total", obs.L("stage", "decide"))
			return nil, stats, err
		}
		stats.Threshold = thr
		stats.SNRdBEst = snr
		stats.Decisions = all
		if t := signal.Active(); t != nil {
			stats.Quality, stats.HasQuality = t.SlicerInput(all, thr)
		}
	}
	decide.End()
	if event.Enabled() {
		event.Emit(0, event.LevelDebug, "reader.demod", "decide",
			event.S("mcs", hdr.MCS.String()),
			event.F("threshold", stats.Threshold), event.F("snr_db", stats.SNRdBEst))
	}

	deframe := span.StartChild("reader.deframe")
	defer deframe.End()
	var out frame.Decoded
	if _, err := Deframe(ws.Bytes(len(bits) / 8)[:0], bits, &out); err != nil {
		obs.Inc("reader_decode_errors_total", obs.L("stage", "deframe"))
		return nil, stats, err
	}
	return &out, stats, nil
}

// The three stages below are the decode steps every burst decoder
// shares: DecodeBurstWS runs them around its header probe, and the
// streaming decoder (internal/stream) schedules them as pipeline stages.
// They carry no instrumentation — spans, counters, taps and events stay
// with the caller, so a stage can run on any worker goroutine without
// touching the deterministic telemetry.

// Sync locates the burst preamble (phy.Waveform.DetectBurstWS) and
// returns the burst start in samples and the correlation metric. A
// failure wraps ErrSync.
func Sync(ws *dsp.Workspace, samples []complex128, w phy.Waveform) (start int, metric float64, err error) {
	start, metric, err = w.DetectBurstWS(ws, samples, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrSync, err)
	}
	return start, metric, nil
}

// Decide slices a whole burst of OOK decisions with the adaptive
// threshold (DecideOOKWS) and estimates their decision-domain SNR
// (phy.MeasureSNRWS), NaN when it is inestimable, both from one pass of
// decision statistics. The bits are valid until the next ws.Reset.
func Decide(ws *dsp.Workspace, decisions []complex128) (bits []byte, threshold, snrDB float64, err error) {
	if len(decisions) == 0 {
		return nil, 0, 0, fmt.Errorf("reader: no decisions")
	}
	st := phy.DecisionStatsWS(ws, decisions)
	bits, threshold = sliceOOK(ws, st)
	if snrDB, err = st.SNRdB(); err != nil {
		snrDB = math.NaN()
	}
	return bits, threshold, snrDB, nil
}

// Deframe packs decided bits into bytes appended to raw and parses them
// as a frame into out, whose slices view the returned buffer. A CRC
// mismatch is out.Trailer.OK == false, not an error; structural
// failures (bit count, header, truncation) are.
func Deframe(raw, bits []byte, out *frame.Decoded) ([]byte, error) {
	raw, err := frame.AppendBytesFromBits(raw, bits)
	if err != nil {
		return nil, err
	}
	if err := (&frame.Parser{}).Decode(raw, out); err != nil {
		return raw, fmt.Errorf("reader: frame: %w", err)
	}
	return raw, nil
}
