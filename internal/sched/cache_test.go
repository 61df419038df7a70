package sched

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"bioperf5/internal/cpu"
)

func wantReport() cpu.Report {
	return cpu.Report{Counters: cpu.Counters{Cycles: 1234, Instructions: 567}}
}

// diskEngine is a stub engine over a shared cache directory.
func diskEngine(t *testing.T, dir string, compute func(Job) (cpu.Report, error)) *Engine {
	t.Helper()
	e := New(Options{Workers: 1, CacheDir: dir})
	e.compute = func(_ context.Context, j Job) (JobResult, error) {
		rep, err := compute(j)
		return JobResult{Report: rep}, err
	}
	t.Cleanup(e.Close)
	return e
}

func cacheFile(t *testing.T, dir string) string {
	t.Helper()
	p := filepath.Join(dir, baseJob().Hash()+".json")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}
	return p
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// First process: computes and persists.
	e1 := diskEngine(t, dir, func(Job) (cpu.Report, error) { return wantReport(), nil })
	if _, err := e1.Run(context.Background(), baseJob()); err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats after first run = %+v", st)
	}
	cacheFile(t, dir)

	// Second process: must not simulate at all.
	e2 := diskEngine(t, dir, func(Job) (cpu.Report, error) {
		return cpu.Report{}, errors.New("should have been a disk hit")
	})
	rep, err := e2.Run(context.Background(), baseJob())
	if err != nil {
		t.Fatal(err)
	}
	if rep != wantReport() {
		t.Errorf("disk hit returned %+v", rep)
	}
	if st := e2.Stats(); st.DiskHits != 1 || st.Computed != 0 {
		t.Errorf("stats after disk hit = %+v", st)
	}
}

// corrupt flips the stored cycle count inside an entry, leaving it
// valid JSON — exactly the kind of silent bit damage the checksum must
// catch.
func corruptEntry(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(b, []byte(`"Cycles": 1234`), []byte(`"Cycles": 4321`), 1)
	if bytes.Equal(mangled, b) {
		t.Fatalf("corruption target not found in entry:\n%s", b)
	}
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	e1 := diskEngine(t, dir, func(Job) (cpu.Report, error) { return wantReport(), nil })
	if _, err := e1.Run(context.Background(), baseJob()); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, cacheFile(t, dir))

	// A corrupted entry must be detected and recomputed, never trusted.
	var computes atomic.Int64
	e2 := diskEngine(t, dir, func(Job) (cpu.Report, error) {
		computes.Add(1)
		return wantReport(), nil
	})
	rep, err := e2.Run(context.Background(), baseJob())
	if err != nil {
		t.Fatal(err)
	}
	if rep != wantReport() {
		t.Errorf("recompute returned %+v", rep)
	}
	if computes.Load() != 1 {
		t.Errorf("corrupted entry served without recompute (computes=%d)", computes.Load())
	}
	if st := e2.Stats(); st.DiskCorrupt != 1 || st.DiskHits != 0 || st.DiskWrites != 1 {
		t.Errorf("stats = %+v", st)
	}

	// The recompute heals the entry: a third engine disk-hits again.
	e3 := diskEngine(t, dir, func(Job) (cpu.Report, error) {
		return cpu.Report{}, errors.New("should have been a disk hit")
	})
	if _, err := e3.Run(context.Background(), baseJob()); err != nil {
		t.Fatal(err)
	}
	if st := e3.Stats(); st.DiskHits != 1 || st.DiskCorrupt != 0 {
		t.Errorf("stats after heal = %+v", st)
	}
}

func TestDiskCacheGarbageFileRecomputed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, baseJob().Hash()+".json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := diskEngine(t, dir, func(Job) (cpu.Report, error) { return wantReport(), nil })
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep != wantReport() {
		t.Fatalf("run over garbage entry = %+v, %v", rep, err)
	}
	if st := e.Stats(); st.DiskCorrupt != 1 || st.Computed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskCacheKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	e1 := diskEngine(t, dir, func(Job) (cpu.Report, error) { return wantReport(), nil })
	if _, err := e1.Run(context.Background(), baseJob()); err != nil {
		t.Fatal(err)
	}
	// File renamed to another job's address: the embedded key no longer
	// hashes to the filename, so it must not satisfy that job.
	other := baseJob()
	other.Seed = 99
	src := cacheFile(t, dir)
	dst := filepath.Join(dir, other.Hash()+".json")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	e2 := diskEngine(t, dir, func(Job) (cpu.Report, error) {
		computes.Add(1)
		return cpu.Report{Counters: cpu.Counters{Cycles: 9}}, nil
	})
	rep, err := e2.Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 || rep.Counters.Cycles != 9 {
		t.Errorf("mismatched key served from disk: %+v (computes=%d)", rep, computes.Load())
	}
}

// TestDiskCacheInjectedTornWriteHealed drives the store-site fault
// injector: the first engine's persist is deliberately torn mid-file,
// and a later engine must detect the damage, recompute, and heal the
// entry rather than trust it.
func TestDiskCacheInjectedTornWriteHealed(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Options{Workers: 1, CacheDir: dir, Injector: faults(t, "corrupt=1")})
	e1.compute = func(context.Context, Job) (JobResult, error) { return JobResult{Report: wantReport()}, nil }
	t.Cleanup(e1.Close)
	if _, err := e1.Run(context.Background(), baseJob()); err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.Injected != 1 || st.DiskWrites != 1 {
		t.Fatalf("stats after injected torn write = %+v", st)
	}

	// The torn entry is on disk and shorter than a valid one.
	b, err := os.ReadFile(cacheFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	e2 := diskEngine(t, dir, func(Job) (cpu.Report, error) {
		computes.Add(1)
		return wantReport(), nil
	})
	rep, err := e2.Run(context.Background(), baseJob())
	if err != nil || rep != wantReport() {
		t.Fatalf("run over torn entry = %+v, %v", rep, err)
	}
	if computes.Load() != 1 {
		t.Errorf("torn entry served without recompute (computes=%d)", computes.Load())
	}
	if st := e2.Stats(); st.DiskCorrupt != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	healed, err := os.ReadFile(cacheFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) <= len(b) {
		t.Errorf("entry not healed: %d bytes before, %d after", len(b), len(healed))
	}

	// Atomic writes never leave temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".json" {
			t.Errorf("stray file in cache dir: %s", ent.Name())
		}
	}
}
