package device_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

// driveLockstep submits n IOs of a deterministic write-heavy mix — four
// writes in five, random offsets and sequential runs, short and long idle
// gaps — to every device at the same times, and fails on the first
// completion time or error that differs between them. On data-storing
// stacks writes also store a payload, so stored bytes diverge too. It
// returns the time after the last IO.
func driveLockstep(t *testing.T, seed int64, n int, at time.Duration, devs ...device.Device) time.Duration {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := devs[0].Capacity()
	var next int64
	for i := 0; i < n; i++ {
		size := (rng.Int63n(16) + 1) * 4096
		off := rng.Int63n((capacity-size)/4096) * 4096
		if rng.Intn(3) == 0 && next+size <= capacity {
			off = next // continue a sequential run
		}
		next = off + size
		mode := device.Write
		if rng.Intn(5) == 0 {
			mode = device.Read
		}
		io := device.IO{Mode: mode, Off: off, Size: size}
		payload := make([]byte, size)
		rng.Read(payload)
		var first time.Duration
		var firstErr error
		for j, d := range devs {
			done, err := submitIO(d, at, io, payload)
			if j == 0 {
				first, firstErr = done, err
				continue
			}
			if done != first || !sameErr(err, firstErr) {
				t.Fatalf("io %d (%+v) on device %d: done %v err %v, device 0: done %v err %v", i, io, j, done, err, first, firstErr)
			}
		}
		if firstErr == nil {
			at = first
		}
		at += time.Duration(rng.Intn(4)) * time.Millisecond
		if rng.Intn(50) == 0 {
			at += 200 * time.Millisecond // long idle: reclamation and destaging
		}
	}
	return at
}

// submitIO submits io, first storing payload through the data plane when
// the device is a data-storing simulated stack.
func submitIO(d device.Device, at time.Duration, io device.IO, payload []byte) (time.Duration, error) {
	if sim, ok := d.(*device.SimDevice); ok && io.Mode == device.Write {
		if dp, ok := sim.Top().(ftl.DataPlane); ok && dp.StoresData() {
			if _, err := dp.WriteData(io.Off, payload); err != nil {
				return 0, err
			}
		}
	}
	return d.Submit(at, io)
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// buildDataSim assembles a simulated device over a data-storing stack: a
// write cache over a page FTL over chips that keep payloads.
func buildDataSim(t *testing.T) device.Cloneable {
	t.Helper()
	const logical = 4 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+24*128*1024, flash.WithDataStorage())
	if err != nil {
		t.Fatal(err)
	}
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	page, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes: logical, UnitBytes: 32 * 1024, WritePoints: 2, ReserveBlocks: 6,
		GCBatch: 2, MapDirtyLimit: 4, MapUnitsPerPage: 16, AsyncReclaim: true,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := ftl.NewWriteCache(page, ftl.CacheConfig{
		CapacityBytes: 512 * 1024, LineBytes: 4096, RegionBytes: 128 * 1024, Streams: 2, DestageOnIdle: true,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.NewSimDevice(device.SimConfig{
		Name: "data-stack", WriteBack: true,
		Bus: device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20},
	}, cache, cost)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// injectReadErrors drives reads through a fault-injecting device until its
// schedule has injected a read error; other devices are left alone.
func injectReadErrors(t *testing.T, dev device.Device, at time.Duration) time.Duration {
	t.Helper()
	f, ok := dev.(*device.FaultyDevice)
	if !ok {
		return at
	}
	for i := int64(0); f.Injections().ReadErrs == 0; i++ {
		if i == 100000 {
			t.Fatal("fault schedule injected no read error")
		}
		if done, err := f.Submit(at, device.IO{Mode: device.Read, Off: i % 64 * 4096, Size: 4096}); err == nil {
			at = done
		}
	}
	return at
}

func snapshot(t *testing.T, d device.Device) *device.State {
	t.Helper()
	s, err := device.SnapshotDevice(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloneIntoRecycledEqualsFresh is the recycling oracle: a clone driven
// far from its master — cache regions, GC victims, the map-book ring, dead
// members and the fault schedule all dirty — and then recycled from the
// master must be exactly a fresh clone of the master: the same state tree,
// and the same completion times and errors for every later IO.
func TestCloneIntoRecycledEqualsFresh(t *testing.T) {
	const capacity = 16 << 20
	spec := func(key string) func(*testing.T) device.Cloneable {
		return func(t *testing.T) device.Cloneable {
			dev, err := profile.BuildDevice(key, capacity)
			if err != nil {
				t.Fatal(err)
			}
			return dev
		}
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) device.Cloneable
	}{
		{"memoright", spec("memoright")},
		{"kingston-dti", spec("kingston-dti")},
		{"stripe", spec("stripe(2,mtron,mtron)")},
		// The faulty member dies while the clone is driven, so the recycled
		// array must forget the dead mark.
		{"mirror with a member killed", spec("mirror(mtron,faulty(mtron,failat=700))")},
		{"faulty", spec("faulty(mtron,readerr=1e-3,seed=7)")},
		{"data-storage stack", buildDataSim},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master := tc.build(t)
			at, err := methodology.EnforceRandomState(master, 42)
			if err != nil {
				t.Fatal(err)
			}
			at = injectReadErrors(t, master, at)
			at = driveLockstep(t, 1, 300, at, master)

			used := master.CloneDevice()
			driveLockstep(t, 2, 2500, at, used)
			if reflect.DeepEqual(snapshot(t, used), snapshot(t, master)) {
				t.Fatal("test premise broken: driving the clone left its state unchanged")
			}
			if c, ok := used.(*device.CompositeDevice); ok && c.Layout() == device.LayoutMirror && !c.Dead(1) {
				t.Fatal("test premise broken: the faulty mirror member is still alive")
			}

			recycled := device.CloneInto(master, used)
			if recycled != used {
				t.Fatal("CloneInto allocated a new device instead of recycling a same-shape one")
			}
			fresh := master.CloneDevice()
			if !reflect.DeepEqual(snapshot(t, recycled), snapshot(t, fresh)) {
				t.Fatal("recycled device's state tree differs from a fresh clone's")
			}
			driveLockstep(t, 3, 1500, at, fresh, recycled)
		})
	}
}

// TestCloneIntoFallsBack: a destination of another shape or kind is never
// recycled into — it is left alone and a fresh clone comes back.
func TestCloneIntoFallsBack(t *testing.T) {
	sim, err := profile.BuildDevice("mtron", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	mem := device.NewMemDevice("mem", 8<<20, time.Millisecond, time.Millisecond)
	for _, dst := range []device.Device{nil, mem, device.NewPerIO(sim)} {
		got := device.CloneInto(sim, dst)
		if got == nil || got == dst {
			t.Fatalf("CloneInto(sim, %T) = %v", dst, got)
		}
		if !reflect.DeepEqual(snapshot(t, got), snapshot(t, sim)) {
			t.Fatalf("CloneInto(sim, %T) is not a copy of the source", dst)
		}
	}
	// A source of an unknown kind clones through its own CloneDevice.
	if got := device.CloneInto(mem, sim); got == sim || got.Name() != "mem" {
		t.Fatal("CloneInto recycled a simulated device for a memory device")
	}
}

// TestCloneIntoAllocs pins what recycling saves: writing a 1 GiB memoright
// master over a used clone of it reuses every buffer of the stack and makes
// at most a handful of allocations, where a fresh deep copy makes dozens.
func TestCloneIntoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1 GiB device")
	}
	master, err := profile.BuildDevice("memoright", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	at, err := methodology.EnforceRandomState(master, 42)
	if err != nil {
		t.Fatal(err)
	}
	at = driveLockstep(t, 1, 500, at, master)
	used := master.CloneDevice()
	driveLockstep(t, 2, 2000, at, used)

	var dst device.Device = used
	recycle := func() { dst = device.CloneInto(master, dst) }
	fresh := testing.AllocsPerRun(5, func() { master.CloneDevice() })
	// AllocsPerRun's warm-up call recycles the driven clone; the measured
	// calls repeat the same work over the same buffers.
	recycled := testing.AllocsPerRun(5, recycle)
	t.Logf("fresh clone: %.0f allocs, recycled: %.0f allocs", fresh, recycled)
	if recycled > 8 {
		t.Fatalf("recycling a used 1 GiB memoright allocates %.0f times, want <= 8", recycled)
	}
	if dst != used {
		t.Fatal("recycling replaced the device")
	}
	if !reflect.DeepEqual(snapshot(t, dst), snapshot(t, master)) {
		t.Fatal("recycled device differs from the master")
	}
}
