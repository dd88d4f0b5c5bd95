package device

import (
	"fmt"

	"uflip/internal/ftl"
)

// State is the state tree of a simulated device, the form the persistent
// state store encodes: exactly one of Sim, Composite and Faulty is set,
// matching the device's type. Top holds the translation stack under a
// simulated device, Members the member states of a composite array and
// Inner the device a fault-injecting wrapper wraps. Restoring validates the
// tree against a freshly built device of the same profile or array spec
// (stack shape, member count, queue depth) and fails loudly on any mismatch.
type State struct {
	Sim       *SimState
	Composite *CompositeState
	Faulty    *FaultyState
	Top       *ftl.TranslatorState
	Members   []*State
	Inner     *State
}

// SnapshotDevice returns a deep copy of the state of a simulated device,
// composite array or fault-injecting wrapper. Devices without full
// in-memory state (files, real block devices) cannot be snapshotted and
// return an error.
func SnapshotDevice(d Device) (*State, error) {
	switch dev := d.(type) {
	case *SimDevice:
		top, err := ftl.SnapshotTranslator(dev.top)
		if err != nil {
			return nil, err
		}
		s := dev.st
		return &State{Sim: &s, Top: top}, nil
	case *CompositeDevice:
		members := make([]*State, len(dev.members))
		for i, m := range dev.members {
			ms, err := SnapshotDevice(m)
			if err != nil {
				return nil, fmt.Errorf("device: composite member %d (%s): %w", i, m.Name(), err)
			}
			members[i] = ms
		}
		s := dev.st.clone()
		return &State{Composite: &s, Members: members}, nil
	case *FaultyDevice:
		inner, err := SnapshotDevice(dev.inner)
		if err != nil {
			return nil, fmt.Errorf("device: faulty-wrapped %s: %w", dev.inner.Name(), err)
		}
		s := dev.st
		return &State{Faulty: &s, Inner: inner}, nil
	default:
		return nil, fmt.Errorf("device: %T cannot be snapshotted", d)
	}
}

// RestoreDevice makes s the state of a freshly built device of the same
// profile or array spec, which takes ownership of it.
func RestoreDevice(d Device, s *State) error {
	if s == nil {
		return fmt.Errorf("device: nil state")
	}
	switch dev := d.(type) {
	case *SimDevice:
		if s.Sim == nil {
			return fmt.Errorf("device: state is not a simulated device")
		}
		if err := ftl.RestoreTranslator(dev.top, s.Top); err != nil {
			return err
		}
		dev.st = *s.Sim
		return nil
	case *CompositeDevice:
		if s.Composite == nil {
			return fmt.Errorf("device: state is not a composite array")
		}
		return dev.restore(*s.Composite, s.Members)
	case *FaultyDevice:
		if s.Faulty == nil {
			return fmt.Errorf("device: state is not a faulty wrapper")
		}
		if err := RestoreDevice(dev.inner, s.Inner); err != nil {
			return fmt.Errorf("device: faulty-wrapped: %w", err)
		}
		dev.st = *s.Faulty
		return nil
	default:
		return fmt.Errorf("device: %T cannot be restored", d)
	}
}

func (d *CompositeDevice) restore(s CompositeState, members []*State) error {
	switch {
	case len(members) != len(d.members):
		return fmt.Errorf("device: state has %d members, array %d", len(members), len(d.members))
	case len(s.Queues) != len(d.st.Queues):
		return fmt.Errorf("device: state has %d queues, array %d", len(s.Queues), len(d.st.Queues))
	case s.Dead != nil && len(s.Dead) != len(d.members):
		return fmt.Errorf("device: state has %d dead marks, array %d members", len(s.Dead), len(d.members))
	}
	for i, q := range s.Queues {
		if len(q.Ring) != len(d.st.Queues[i].Ring) {
			return fmt.Errorf("device: state queue %d depth %d, array %d", i, len(q.Ring), len(d.st.Queues[i].Ring))
		}
		if q.Idx < 0 || q.Idx >= len(q.Ring) {
			return fmt.Errorf("device: state queue %d index %d out of range", i, q.Idx)
		}
	}
	for i, ms := range members {
		if err := RestoreDevice(d.members[i], ms); err != nil {
			return fmt.Errorf("device: composite member %d: %w", i, err)
		}
	}
	if s.Dead == nil {
		s.Dead = make([]bool, len(d.members))
	}
	d.st = s
	return nil
}
