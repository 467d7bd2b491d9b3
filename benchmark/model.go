package main

import (
	"errors"
	"fmt"
	"time"

	causaliot "github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/event"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/pc"
	"github.com/causaliot/causaliot/internal/preprocess"
	"github.com/causaliot/causaliot/internal/sim"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// trainConfig is the detection setting every workload serves.
var trainConfig = causaliot.Config{Tau: 2, KMax: 1}

// home is the simulated testbed every workload replays: the
// ContextAct-like single-resident apartment of the paper's evaluation.
type home struct {
	tb      *sim.Testbed
	devices []causaliot.Device
}

func newHome() (*home, error) {
	tb := sim.ContextActLike()
	devices := make([]causaliot.Device, len(tb.Devices))
	for i, d := range tb.Devices {
		typ, err := deviceType(d.Attribute)
		if err != nil {
			return nil, err
		}
		devices[i] = causaliot.Device{Name: d.Name, Type: typ, Location: d.Location}
	}
	return &home{tb: tb, devices: devices}, nil
}

// deviceType maps a testbed attribute onto the public device classes.
func deviceType(attr event.Attribute) (causaliot.DeviceType, error) {
	switch attr.Name {
	case event.Switch.Name:
		return causaliot.Switch, nil
	case event.PresenceSensor.Name:
		return causaliot.Presence, nil
	case event.ContactSensor.Name:
		return causaliot.Contact, nil
	case event.Dimmer.Name:
		return causaliot.Dimmer, nil
	case event.WaterMeter.Name:
		return causaliot.WaterMeter, nil
	case event.PowerSensor.Name:
		return causaliot.Power, nil
	case event.BrightnessSensor.Name:
		return causaliot.Brightness, nil
	}
	switch attr.Class {
	case event.Binary:
		return causaliot.GenericBinary, nil
	case event.ResponsiveNumeric:
		return causaliot.GenericResponsive, nil
	case event.AmbientNumeric:
		return causaliot.GenericAmbient, nil
	}
	return 0, fmt.Errorf("unmapped device attribute %q", attr.Name)
}

// simulate synthesises days of resident life from seed as public events.
func (h *home) simulate(seed int64, days int) ([]causaliot.Event, error) {
	s, err := sim.NewSimulator(h.tb, sim.Config{Seed: seed, Days: days})
	if err != nil {
		return nil, err
	}
	log, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := make([]causaliot.Event, len(log))
	for i, ev := range log {
		out[i] = causaliot.Event{Time: ev.Timestamp, Device: ev.Device, Value: ev.Value}
	}
	return out, nil
}

// train fits a serving system on log under a "train" span.
func (h *home) train(log []causaliot.Event, rec *recorder) (*causaliot.System, error) {
	sp := rec.begin("train", "", 0, 0)
	defer rec.end(sp)
	return causaliot.Train(h.devices, log, trainConfig)
}

// internalModel is the mining pipeline's output below the facade: what a
// bare monitor.Detector needs for the ladder's bottom rung.
type internalModel struct {
	pre       *preprocess.Preprocessor
	graph     *dig.Graph
	threshold float64
	initial   timeseries.State
	ciTests   int
}

// trainStages runs preprocess → TemporalPC mine → threshold calibration
// through the internal packages, with the configuration Train uses, one
// span per stage under a "stages" root whose self time is the glue between
// them: the facade's Train exposes no stage timings.
func (h *home) trainStages(log []causaliot.Event, rec *recorder) (*internalModel, error) {
	devices := make([]event.Device, len(h.tb.Devices))
	copy(devices, h.tb.Devices)
	raw := make(event.Log, len(log))
	for i, e := range log {
		raw[i] = event.Event{Timestamp: e.Time, Device: e.Device, Value: e.Value}
	}
	root := rec.begin("stages", "", 0, 0)
	defer rec.end(root)
	sp := rec.begin("preprocess", "", 0, root)
	pre, err := preprocess.New(devices, preprocess.Config{MaxDuration: preprocess.DefaultMaxDuration, TauOverride: trainConfig.Tau})
	if err != nil {
		return nil, err
	}
	res, err := pre.Process(raw)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("mine", "", 0, root)
	miner := pc.NewMiner(pc.Config{Alpha: pc.DefaultAlpha, MaxCondSize: 3, MinObsPerDOF: 5, MaxParents: 8})
	graph, _, st, err := miner.Mine(res.Series, res.Tau, 0.01)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("threshold", "", 0, root)
	threshold, err := monitor.Threshold(graph, res.Series, monitor.DefaultQuantile)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	return &internalModel{
		pre:       pre,
		graph:     graph,
		threshold: max(threshold, 0.5),
		initial:   res.Series.State(res.Series.Len()).Clone(),
		ciTests:   st.Tests,
	}, nil
}

// stream is one home's runtime traffic: a base log replayed cyclically from
// an offset, timestamps shifted forward by the log's span on every wrap so
// time never runs backwards. Event i carries Seq i+1.
type stream struct {
	base   []causaliot.Event
	span   time.Duration
	offset int
	// scramble, when set, reports the i-th event's device as its image
	// under scramble[i%len(scramble)] throughout: structural drift.
	scramble []map[string]string
	// invert flips these binary devices in the last two thirds of every
	// pass through the base log: drift in a few relationships.
	invert map[string]bool
}

func newStream(base []causaliot.Event, offset int) (*stream, error) {
	if len(base) < 2 {
		return nil, errors.New("stream base log too short")
	}
	span := base[len(base)-1].Time.Sub(base[0].Time) + time.Second
	return &stream{base: base, span: span, offset: offset % len(base)}, nil
}

// at returns the i-th event of the stream (0-based).
func (s *stream) at(i int) causaliot.Event {
	pos := s.offset + i
	wrap, j := pos/len(s.base), pos%len(s.base)
	ev := s.base[j]
	ev.Time = ev.Time.Add(time.Duration(wrap) * s.span)
	ev.Seq = uint64(i) + 1
	if s.scramble != nil {
		if to, ok := s.scramble[i%len(s.scramble)][ev.Device]; ok {
			ev.Device = to
		}
	}
	if j >= len(s.base)/3 && s.invert[ev.Device] {
		ev.Value = 1 - ev.Value
	}
	return ev
}
