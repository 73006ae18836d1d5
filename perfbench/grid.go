package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"

	"github.com/mmtag/mmtag/internal/grid"
)

// smokeSpec is the committed grid the grid_smoke workload runs; the
// workload seed replaces the spec's master seed.
const smokeSpec = "experiments/smoke.json"

func loadSmoke(seed uint64) (*grid.Spec, error) {
	spec, err := grid.Load(smokeSpec)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return spec, nil
}

// gridWork returns a fresh, empty directory for grid output.
func gridWork(name string) (string, error) {
	dir := filepath.Join(workDir, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setupGrid loads the spec, makes the output directory and archives the
// spec's first cell: the grid's first completed operation.
func setupGrid(o opts) error {
	spec, err := loadSmoke(o.seed)
	if err != nil {
		return err
	}
	dir, err := gridWork("setup")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	first := spec.Cells[0]
	first.Repeats = 1
	if len(first.Points) > 1 {
		first.Points = first.Points[:1]
	}
	if len(first.Bits) > 1 {
		first.Bits = first.Bits[:1]
	}
	one := *spec
	one.Cells = []grid.CellSpec{first}
	_, err = grid.Run(&one, filepath.Join(dir, "run"), o.nproc)
	return err
}

// gridPass runs, verifies and reports the spec into dir/run and
// dir/report, timing each step as a child span of one pass span.
func gridPass(rec *recorder, trace int32, spec *grid.Spec, dir string, workers int) (*grid.Index, error) {
	runDir, reportDir := filepath.Join(dir, "run"), filepath.Join(dir, "report")
	root := rec.begin("grid.pass", trace, -1)
	defer rec.end(root)
	id := rec.begin("grid.run", trace, root)
	idx, err := grid.Run(spec, runDir, workers)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("grid.verify", trace, root)
	err = grid.VerifyDir(runDir)
	rec.end(id)
	if err != nil {
		return nil, checkf("grid.VerifyDir after a pass: %v", err)
	}
	id = rec.begin("grid.report", trace, root)
	err = grid.Report(runDir, reportDir)
	rec.end(id)
	return idx, err
}

func runGrid(o opts) (*result, error) {
	spec, err := loadSmoke(o.seed)
	if err != nil {
		return nil, err
	}
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	dir, err := gridWork("grid")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec, seconds := &recorder{}, o.seconds
	if o.trace {
		rec, seconds = newRecorder(), o.seconds/3
	}
	var first *grid.Index
	passes := 0
	samples, err := repeatFor(seconds, 3, func() (int, float64, error) {
		passDir := filepath.Join(dir, fmt.Sprintf("pass-%d", passes))
		idx, err := gridPass(rec, int32(passes), spec, passDir, o.nproc)
		passes++
		if err != nil {
			return 0, 0, err
		}
		if len(idx.Cells) != len(cells) {
			return 0, 0, checkf("grid archived %d of %d cells", len(idx.Cells), len(cells))
		}
		if first == nil {
			first = idx
		} else if !reflect.DeepEqual(idx.Cells, first.Cells) {
			return 0, 0, checkf("grid pass %d cell metrics differ from the first pass", passes-1)
		}
		return 1, 0, nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{}
	if !o.trace {
		throughput(res, samples, "grid passes")
		var wall, cpu []float64
		for _, s := range samples {
			wall, cpu = append(wall, s.ownWall()), append(cpu, s.cpu)
		}
		res.attempted = len(samples) * len(cells)
		res.note("wall_s %.4f s", median(wall))
		res.note("cpu_s %.4f CPU-s", median(cpu))
		res.note("cell_failure_ratio 0 ratio (%d cells attempted; any cell failure fails the pass)",
			res.attempted)
		return res, nil
	}
	return traceGrid(o, rec, res, spec, dir)
}

func traceGrid(o opts, rec *recorder, res *result, spec *grid.Spec, dir string) (*result, error) {
	for _, name := range []string{"grid.run", "grid.verify", "grid.report"} {
		ms := rec.durations(name)
		for i := range ms {
			ms[i] /= 1e3
		}
		res.timing(name+"_ms", ms)
	}
	bytes, files, err := archiveSize(filepath.Join(dir, "pass-0", "run"))
	if err != nil {
		return nil, err
	}
	res.count("manifest.bytes_written", float64(bytes))
	res.count("manifest.files_written", float64(files))

	// Each smoke block as its own one-block spec.
	trace := batchTrace(0)
	for round := 0; round < 3; round++ {
		for i, block := range spec.Cells {
			one := *spec
			one.Cells = []grid.CellSpec{block}
			out := filepath.Join(dir, fmt.Sprintf("block-%d", i))
			id := rec.begin("grid.cell."+block.Driver, trace, -1)
			_, err := grid.Run(&one, out, o.nproc)
			rec.end(id)
			trace++
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(out); err != nil {
				return nil, err
			}
		}
	}
	for _, block := range spec.Cells {
		name := "grid.cell." + block.Driver
		ms := rec.durations(name)
		for i := range ms {
			ms[i] /= 1e3
		}
		res.timing("grid.cell_ms."+block.Driver, ms)
	}

	// Sampling cost: the spec as committed against the spec with
	// sample_dt removed, both at one worker, alternately.
	unsampled := *spec
	unsampled.SampleDT = 0
	for k := 0; k < 3; k++ {
		for _, run := range []struct {
			name string
			spec *grid.Spec
		}{{"grid.run_sampled_w1", spec}, {"grid.run_unsampled_w1", &unsampled}} {
			out := filepath.Join(dir, "sampling")
			id := rec.begin(run.name, trace, -1)
			_, err := grid.Run(run.spec, out, 1)
			rec.end(id)
			trace++
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(out); err != nil {
				return nil, err
			}
		}
	}
	res.count("obs.sampled_overhead_ratio",
		median(rec.durations("grid.run_sampled_w1"))/median(rec.durations("grid.run_unsampled_w1")))

	path, err := rec.write(o)
	if err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(rec.spans), path)
	res.attempted = len(rec.durations("grid.pass"))
	return res, nil
}

// archiveSize sums the files a grid run archived, leaving out each
// manifest.json (it carries wall-clock fields).
func archiveSize(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "manifest.json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		files++
		return nil
	})
	return bytes, files, err
}
