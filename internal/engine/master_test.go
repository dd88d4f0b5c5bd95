package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

// masterBuild returns a master build function over the memoright profile
// that counts how many times the device is actually built and enforced.
func masterBuild(t testing.TB, builds *int) func() (device.Cloneable, time.Duration, error) {
	t.Helper()
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	return func() (device.Cloneable, time.Duration, error) {
		*builds++
		dev, err := prof.BuildWithCapacity(testCapacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, 42)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	}
}

// TestMasterBuildsOnce runs a full plan through a cloning factory and checks
// the master device is built and enforced exactly once, no matter how many
// shards and workers consume clones.
func TestMasterBuildsOnce(t *testing.T) {
	plan := testPlan(t)
	builds := 0
	res, err := engine.ExecutePlan(context.Background(), plan,
		engine.CloningFactory(masterBuild(t, &builds)),
		engine.Options{Workers: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(res.Results))
	}
	if builds != 1 {
		t.Fatalf("master built %d times, want 1", builds)
	}
}

// TestMasterCloneVsRebuildIdentical is the snapshot subsystem's end-to-end
// oracle at the engine level: executing the same plan with per-shard clones
// of one enforced master yields byte-identical merged results to rebuilding
// and re-enforcing a device per shard with the same seed — for any worker
// count.
func TestMasterCloneVsRebuildIdentical(t *testing.T) {
	plan := testPlan(t)
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(engine.Shard) (device.Device, time.Duration, error) {
		dev, err := prof.BuildWithCapacity(testCapacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, 42)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		builds := 0
		clone := engine.CloningFactory(masterBuild(t, &builds))
		for _, factory := range []engine.DeviceFactory{rebuild, clone} {
			res, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{
				Workers: workers,
				Seed:    42,
			})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("clone-based results diverge from rebuild path (blob %d)", i)
		}
	}
}

// TestMasterPropagatesBuildError checks a failing build surfaces as the
// engine error and is not retried per shard.
func TestMasterPropagatesBuildError(t *testing.T) {
	plan := testPlan(t)
	boom := errors.New("boom")
	builds := 0
	_, err := engine.ExecutePlan(context.Background(), plan,
		engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
			builds++
			return nil, 0, boom
		}),
		engine.Options{Workers: 4, Seed: 42})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1 (cached)", builds)
	}
}

// TestMasterConcurrentCopies runs concurrent factory calls, half of them
// recycling a device their goroutine already drove away from the master
// state. Every device handed out must equal a fresh clone of the master;
// under -race the test also pins that copies read the master without
// holding its lock safely.
func TestMasterConcurrentCopies(t *testing.T) {
	builds := 0
	m := engine.NewMaster(masterBuild(t, &builds))
	factory := m.Factory()
	ref, _, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	want, err := device.SnapshotDevice(ref)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			errs <- func() error {
				var prev device.Device
				for round := 0; round < 3; round++ {
					dev, at, err := factory(engine.Shard{Index: round, Reuse: prev})
					if err != nil {
						return err
					}
					if prev != nil && dev != prev {
						return errors.New("factory did not recycle the offered device")
					}
					got, err := device.SnapshotDevice(dev)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("round %d: device differs from the master state", round)
					}
					for i := int64(0); i < 64; i++ {
						done, err := dev.Submit(at, device.IO{Mode: device.Write, Off: i * 64 * 1024, Size: 64 * 1024})
						if err != nil {
							return err
						}
						at = done
					}
					prev = dev
				}
				return nil
			}()
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 {
		t.Fatalf("master built %d times, want 1", builds)
	}
}

// TestEngineHandsWorkersTheirPreviousDevice pins the Reuse contract for plan
// and job execution alike: a shard's Reuse is nil or the device a shard of
// the same worker ran on before, so no device is ever offered twice; with
// one worker it is exactly the previous shard's device.
func TestEngineHandsWorkersTheirPreviousDevice(t *testing.T) {
	plan := testPlan(t)
	jobs := make([]engine.Job, 8)
	for i := range jobs {
		jobs[i] = engine.Job{ID: fmt.Sprint(i), Run: func(context.Context, device.Device, time.Duration) (*core.Run, error) {
			return &core.Run{}, nil
		}}
	}
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		var handed []device.Device // in factory-call order
		offered := map[device.Device]bool{}
		factory := func(s engine.Shard) (device.Device, time.Duration, error) {
			mu.Lock()
			defer mu.Unlock()
			if s.Reuse != nil {
				if offered[s.Reuse] {
					t.Errorf("device offered as Reuse twice")
				}
				offered[s.Reuse] = true
				if workers == 1 && s.Reuse != handed[len(handed)-1] {
					t.Errorf("shard %d: Reuse is not the previous shard's device", s.Index)
				}
			}
			dev := device.NewMemDevice(fmt.Sprint(s.Index), testCapacity, time.Millisecond, time.Millisecond)
			handed = append(handed, dev)
			return dev, 0, nil
		}
		if _, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.ExecuteJobs(context.Background(), jobs, factory, engine.Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if workers == 1 && len(offered) != len(handed)-2 {
			t.Fatalf("one worker: %d devices recycled of %d, want all but each run's first", len(offered), len(handed))
		}
	}
}
