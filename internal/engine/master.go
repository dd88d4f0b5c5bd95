package engine

import (
	"sync"
	"time"

	"uflip/internal/device"
)

// Master caches one fully prepared ("well-enforced", Section 4.1) device and
// hands out deep copies of it. Building and enforcing a device is by far the
// dominant cost of a shard — a random fill writes the whole logical capacity
// — while a copy only duplicates the in-memory state, so a Master turns N
// per-shard enforcements into one enforcement plus N snapshots. Its Factory
// writes each snapshot over the worker's previous shard device
// (device.CloneInto) when the engine offers one, so a worker recycles one
// device for all its shards instead of allocating a new one per shard.
//
// The build function runs lazily on the first request and its result (or
// error) is cached. The lock covers only the build: after it the master is
// read-only, so Clone and the factory copy concurrently from worker
// goroutines. Because every shard starts from the same master state, the
// merged results are still a pure function of the plan and options — and
// byte-identical to rebuilding and re-enforcing each shard's device with the
// same seed.
type Master struct {
	build func() (device.Cloneable, time.Duration, error)

	mu  sync.Mutex
	dev device.Cloneable
	at  time.Duration
	err error
}

// NewMaster returns a Master over build, which must produce a fully prepared
// device and the virtual time at which measurements may start (typically the
// end of state enforcement plus the inter-run pause).
func NewMaster(build func() (device.Cloneable, time.Duration, error)) *Master {
	return &Master{build: build}
}

// Clone returns an independent deep copy of the master device (building the
// master first if needed) and the prepared start time.
func (m *Master) Clone() (device.Device, time.Duration, error) {
	return m.cloneInto(nil)
}

// cloneInto is Clone writing the copy over dst (see device.CloneInto). Only
// the build holds the lock; the copy reads the finished master unlocked.
func (m *Master) cloneInto(dst device.Device) (device.Device, time.Duration, error) {
	m.mu.Lock()
	if m.dev == nil && m.err == nil {
		m.dev, m.at, m.err = m.build()
	}
	dev, at, err := m.dev, m.at, m.err
	m.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return device.CloneInto(dev, dst), at, nil
}

// Factory adapts the master to the engine's DeviceFactory: every shard gets
// a copy of the one enforced master instead of a rebuilt device, written
// over the shard's Reuse device when it has one.
func (m *Master) Factory() DeviceFactory {
	return func(s Shard) (device.Device, time.Duration, error) {
		return m.cloneInto(s.Reuse)
	}
}

// CloningFactory is a convenience over NewMaster(build).Factory() for
// callers that never need the master itself.
func CloningFactory(build func() (device.Cloneable, time.Duration, error)) DeviceFactory {
	return NewMaster(build).Factory()
}
