package statestore_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

const testCapacity = 8 << 20

func enforcedDevice(t *testing.T, spec string) (device.Cloneable, time.Duration) {
	t.Helper()
	dev, err := profile.BuildDevice(spec, testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	at, err := methodology.EnforceRandomState(dev, 42)
	if err != nil {
		t.Fatal(err)
	}
	return dev, at
}

func key(spec string) statestore.Key {
	return statestore.Key{Spec: spec, Capacity: testCapacity, Seed: 42, Enforce: "random"}
}

// driveBoth submits an identical deterministic IO mix to both devices and
// fails on the first diverging completion time — the strictest equivalence
// the device interface can express.
func driveBoth(t *testing.T, a, b device.Device, seed int64) {
	t.Helper()
	if a.Capacity() != b.Capacity() {
		t.Fatalf("capacities differ: %d vs %d", a.Capacity(), b.Capacity())
	}
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	for i := 0; i < 400; i++ {
		size := (rng.Int63n(64) + 1) * 512
		off := rng.Int63n((a.Capacity()-size)/512) * 512
		mode := device.Read
		if rng.Intn(2) == 0 {
			mode = device.Write
		}
		io := device.IO{Mode: mode, Off: off, Size: size}
		da, ea := a.Submit(at, io)
		db, eb := b.Submit(at, io)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("io %d: error mismatch: %v vs %v", i, ea, eb)
		}
		if da != db {
			t.Fatalf("io %d (%s off=%d size=%d): completion %v vs %v", i, mode, off, size, da, db)
		}
		at = da + time.Duration(rng.Intn(5))*time.Millisecond
	}
}

// advanceSchedule drives reads through a fault-injecting device until its
// schedule has injected a read error, so a saved state carries a non-zero op
// index and injection counts. Other devices are left alone.
func advanceSchedule(t *testing.T, dev device.Device, at time.Duration) time.Duration {
	t.Helper()
	f, ok := dev.(*device.FaultyDevice)
	if !ok {
		return at
	}
	for i := int64(0); f.Injections().ReadErrs == 0; i++ {
		if i == 100000 {
			t.Fatal("fault schedule injected no read error")
		}
		io := device.IO{Mode: device.Read, Off: i % 64 * 4096, Size: 4096}
		if done, err := f.Submit(at, io); err == nil {
			at = done
		}
	}
	return at
}

// requireSameState fails unless both devices have exactly the same state
// tree.
func requireSameState(t *testing.T, what string, got, want device.Device) {
	t.Helper()
	gs, err := device.SnapshotDevice(got)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := device.SnapshotDevice(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: state tree differs from the live device's", what)
	}
}

// TestSaveLoadRoundTrip covers every translation design in the profile set
// plus a composite array and a fault-injecting wrapper: a loaded state must
// equal the live enforced device's state tree exactly, as must a clone's,
// and be indistinguishable from it under any subsequent IO sequence.
func TestSaveLoadRoundTrip(t *testing.T) {
	specs := []string{
		"memoright",       // page FTL + RAM write cache, write-back
		"samsung",         // page FTL + flash-backed log zone
		"kingston-dti",    // block FTL, no cache
		"transcend-mlc32", // block FTL + flash-backed cache
		"stripe(2,mtron,mtron)",
		"mirror(2,kingston-dti,kingston-dti)",
		"faulty(mtron,readerr=1e-3,seed=7)", // schedule advanced before Save
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			store, err := statestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			live, at := enforcedDevice(t, spec)
			at = advanceSchedule(t, live, at)
			if err := store.Save(key(spec), live, at); err != nil {
				t.Fatal(err)
			}
			fresh, err := profile.BuildDevice(spec, testCapacity)
			if err != nil {
				t.Fatal(err)
			}
			gotAt, hit, err := store.Load(key(spec), fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("saved state not found")
			}
			if gotAt != at {
				t.Fatalf("loaded at=%v, want %v", gotAt, at)
			}
			requireSameState(t, "loaded", fresh, live)
			requireSameState(t, "clone", live.CloneDevice(), live)
			driveBoth(t, live, fresh, 7)
		})
	}
}

func TestLoadMissIsNotAnError(t *testing.T) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := profile.BuildDevice("mtron", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	at, hit, err := store.Load(key("mtron"), dev)
	if err != nil || hit || at != 0 {
		t.Fatalf("miss: got at=%v hit=%v err=%v, want 0/false/nil", at, hit, err)
	}
	if store.Contains(key("mtron")) {
		t.Fatal("Contains reported a file that does not exist")
	}
}

func TestKeyHashSeparatesConfigurations(t *testing.T) {
	base := key("mtron")
	variants := []statestore.Key{
		{Spec: "samsung", Capacity: base.Capacity, Seed: base.Seed, Enforce: base.Enforce},
		{Spec: base.Spec, Capacity: base.Capacity * 2, Seed: base.Seed, Enforce: base.Enforce},
		{Spec: base.Spec, Capacity: base.Capacity, Seed: base.Seed + 1, Enforce: base.Enforce},
		{Spec: base.Spec, Capacity: base.Capacity, Seed: base.Seed, Enforce: "sequential"},
	}
	for _, v := range variants {
		if v.Hash() == base.Hash() {
			t.Fatalf("key %v collides with %v", v, base)
		}
	}
}

// TestCorruptedFilesAreQuarantined pins the store's central safety property:
// a damaged state file is never silently mis-loaded. Load moves it aside to
// <file>.corrupt — preserving the bytes for inspection — and reports a miss,
// so the caller re-enforces live and Save replaces the state.
func TestCorruptedFilesAreQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := statestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, at := enforcedDevice(t, "kingston-dti")
	k := key("kingston-dti")
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	path := store.Path(k)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	freshLoad := func(t *testing.T) (bool, error) {
		t.Helper()
		dev, err := profile.BuildDevice("kingston-dti", testCapacity)
		if err != nil {
			t.Fatal(err)
		}
		_, hit, err := store.Load(k, dev)
		return hit, err
	}
	if hit, err := freshLoad(t); err != nil || !hit {
		t.Fatalf("pristine file failed to load: hit=%v err=%v", hit, err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			damaged := mutate(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				os.Remove(path + ".corrupt")
				os.WriteFile(path, pristine, 0o644)
			}()
			hit, err := freshLoad(t)
			if err != nil {
				t.Fatalf("corrupted state file errored instead of quarantining: %v", err)
			}
			if hit {
				t.Fatal("corrupted state file loaded as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupted file still in place (stat err=%v); it must move to .corrupt", err)
			}
			moved, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
			if !bytes.Equal(moved, damaged) {
				t.Fatal("quarantined bytes differ from the damaged file")
			}
		})
	}
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("empty file", func(b []byte) []byte { return nil })
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("bad version", func(b []byte) []byte { b[8] ^= 0xFF; return b })
	corrupt("flipped payload byte", func(b []byte) []byte { b[len(b)-7] ^= 0x10; return b })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xAB) })

	t.Run("foreign key file", func(t *testing.T) {
		other := key("mtron")
		if err := os.WriteFile(store.Path(other), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(store.Path(other) + ".corrupt")
		dev, err := profile.BuildDevice("mtron", testCapacity)
		if err != nil {
			t.Fatal(err)
		}
		if _, hit, err := store.Load(other, dev); err != nil || hit {
			t.Fatalf("foreign key file: hit=%v err=%v, want quarantined miss", hit, err)
		}
		if _, err := os.Stat(store.Path(other) + ".corrupt"); err != nil {
			t.Fatalf("foreign key file not quarantined: %v", err)
		}
	})

	t.Run("no temp files left behind", func(t *testing.T) {
		matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Fatalf("temp files left behind: %v", matches)
		}
	})
}

// TestQuarantineRecoversByteIdentical is the corruption regression test: flip
// one payload byte in a saved state, then run the load-or-enforce sequence
// every caller uses. The corrupt file must quarantine as a miss, the live
// re-enforcement must reproduce the state byte-identically to a cold run with
// no store at all, and the re-saved file must serve later loads again.
func TestQuarantineRecoversByteIdentical(t *testing.T) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("memoright")
	live, at := enforcedDevice(t, "memoright")
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	path := store.Path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The caller-side sequence: load (must quarantine to a miss), enforce
	// live, save.
	recovered, err := profile.BuildDevice("memoright", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(k, recovered); err != nil || hit {
		t.Fatalf("corrupt load: hit=%v err=%v, want quarantined miss", hit, err)
	}
	recAt, err := methodology.EnforceRandomState(recovered, 42)
	if err != nil {
		t.Fatal(err)
	}
	if recAt != at {
		t.Fatalf("re-enforcement finished at %v, cold run at %v", recAt, at)
	}
	if err := store.Save(k, recovered, recAt); err != nil {
		t.Fatal(err)
	}

	// Byte-identical to a cold run: same completions under an adversarial IO
	// mix, and the re-saved file loads as a hit that behaves the same.
	cold, coldAt := enforcedDevice(t, "memoright")
	if coldAt != at {
		t.Fatalf("cold enforcement at %v, want %v", coldAt, at)
	}
	driveBoth(t, cold, recovered, 11)
	reloaded, err := profile.BuildDevice("memoright", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(k, reloaded); err != nil || !hit {
		t.Fatalf("re-saved state: hit=%v err=%v, want clean hit", hit, err)
	}
	cold2, _ := enforcedDevice(t, "memoright")
	driveBoth(t, cold2, reloaded, 13)
}

// TestVersion1FileReenforced: a state file written in format version 1 (the
// mirror-snapshot encoding) is quarantined once, like any unreadable state;
// the live re-enforcement that follows is byte-identical to a cold run, and
// the re-saved file serves later loads.
func TestVersion1FileReenforced(t *testing.T) {
	const spec = "kingston-dti"
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key(spec)
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-kingston-dti.state"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(k), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := profile.BuildDevice(spec, testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(k, recovered); err != nil || hit {
		t.Fatalf("version-1 load: hit=%v err=%v, want quarantined miss", hit, err)
	}
	if moved, err := os.ReadFile(store.Path(k) + ".corrupt"); err != nil || !bytes.Equal(moved, v1) {
		t.Fatalf("version-1 file not quarantined verbatim (err=%v)", err)
	}
	recAt, err := methodology.EnforceRandomState(recovered, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(k, recovered, recAt); err != nil {
		t.Fatal(err)
	}
	cold, coldAt := enforcedDevice(t, spec)
	if recAt != coldAt {
		t.Fatalf("re-enforcement finished at %v, cold run at %v", recAt, coldAt)
	}
	requireSameState(t, "re-enforced", recovered, cold)
	reloaded, err := profile.BuildDevice(spec, testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(k, reloaded); err != nil || !hit {
		t.Fatalf("re-saved state: hit=%v err=%v, want clean hit", hit, err)
	}
	requireSameState(t, "reloaded", reloaded, cold)
	driveBoth(t, cold, reloaded, 17)
}

// TestVersion2StoredPagesFileLoads pins the state-file compatibility of
// derived page state: testdata/v2-stored-pages-memoright.state was written
// by the release whose chip state still stored every page's state. gob
// skips the dropped field, so the file must load as a clean hit — no
// quarantine — equal to live enforcement, and a replay on it must produce a
// response-time CSV byte-identical to one on the live-enforced device.
func TestVersion2StoredPagesFileLoads(t *testing.T) {
	const spec = "memoright"
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key(spec)
	old, err := os.ReadFile(filepath.Join("testdata", "v2-stored-pages-memoright.state"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(k), old, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := profile.BuildDevice(spec, testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	loadedAt, hit, err := store.Load(k, loaded)
	if err != nil || !hit {
		t.Fatalf("stored-pages load: hit=%v err=%v, want clean hit", hit, err)
	}
	if _, err := os.Stat(store.Path(k) + ".corrupt"); !os.IsNotExist(err) {
		t.Fatal("stored-pages file was quarantined")
	}
	live, liveAt := enforcedDevice(t, spec)
	if loadedAt != liveAt {
		t.Fatalf("loaded state finished at %v, live enforcement at %v", loadedAt, liveAt)
	}
	requireSameState(t, "stored-pages load", loaded, live)
	gen := workload.OLTP{PageSize: 8192, TargetSize: testCapacity, ReadFraction: 0.7, Count: 2000, Seed: 5}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	replayCSV := func(dev device.Device, at time.Duration) []byte {
		t.Helper()
		run, err := workload.Replay(context.Background(), dev, ops, at+time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteRTSeriesCSV(&buf, run.RTs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(replayCSV(loaded, loadedAt), replayCSV(live, liveAt)) {
		t.Fatal("replay on the stored-pages state diverges from live enforcement")
	}
}

// TestRestoreIntoWrongDeviceFails: a valid file must refuse to restore into
// a structurally different device.
func TestRestoreIntoWrongDeviceFails(t *testing.T) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live, at := enforcedDevice(t, "memoright")
	k := key("memoright")
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	// Same key, but the caller hands a device built from another profile:
	// the snapshot shape (page FTL + cache over a different array) must not
	// silently restore.
	wrong, err := profile.BuildDevice("kingston-dti", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load(k, wrong); err == nil {
		t.Fatal("page-FTL state restored into a block-FTL device")
	}
}
