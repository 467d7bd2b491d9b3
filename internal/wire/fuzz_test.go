package wire

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// roundTrips maps every frame type with a payload decoder to a function
// that decodes a payload and re-encodes the value as a whole frame.
var roundTrips = map[FrameType]func(p []byte) ([]byte, error){
	FrameHello: func(p []byte) ([]byte, error) {
		_, token, tenant, session, err := ParseHello(p)
		if err != nil {
			return nil, err
		}
		if session {
			return AppendHelloSession(nil, token, tenant)
		}
		return AppendHello(nil, token, tenant)
	},
	FrameWelcome: func(p []byte) ([]byte, error) {
		_, maxFrame, err := ParseWelcome(p)
		if err != nil {
			return nil, err
		}
		return AppendWelcome(nil, maxFrame), nil
	},
	FrameEvent: func(p []byte) ([]byte, error) {
		ev, err := ParseEvent(p)
		if err != nil {
			return nil, err
		}
		return AppendEvent(nil, ev)
	},
	FrameNack: func(p []byte) ([]byte, error) {
		n, err := ParseNack(p)
		if err != nil {
			return nil, err
		}
		return AppendNack(nil, n)
	},
	FrameAlarm: func(p []byte) ([]byte, error) {
		a, err := ParseAlarm(p)
		if err != nil {
			return nil, err
		}
		return AppendAlarm(nil, a)
	},
	FrameResume: func(p []byte) ([]byte, error) {
		name, idx, err := ParseResume(p)
		if err != nil {
			return nil, err
		}
		return AppendResume(nil, name, idx)
	},
	FrameResumeOK: func(p []byte) ([]byte, error) {
		wm, idx, err := ParseResumeOK(p)
		if err != nil {
			return nil, err
		}
		return AppendResumeOK(nil, wm, idx), nil
	},
	FrameAck: func(p []byte) ([]byte, error) {
		seq, err := ParseAck(p)
		if err != nil {
			return nil, err
		}
		return AppendAck(nil, seq), nil
	},
	FrameEventRetx: func(p []byte) ([]byte, error) {
		ev, err := ParseEvent(p)
		if err != nil {
			return nil, err
		}
		return AppendEventRetx(nil, ev)
	},
	FrameSessionAlarm: func(p []byte) ([]byte, error) {
		idx, a, err := ParseSessionAlarm(p)
		if err != nil {
			return nil, err
		}
		return AppendSessionAlarm(nil, idx, a)
	},
	FrameAlarmAck: func(p []byte) ([]byte, error) {
		idx, err := ParseAlarmAck(p)
		if err != nil {
			return nil, err
		}
		return AppendAlarmAck(nil, idx), nil
	},
	FrameShardHello: func(p []byte) ([]byte, error) {
		_, token, router, err := ParseShardHello(p)
		if err != nil {
			return nil, err
		}
		return AppendShardHello(nil, token, router)
	},
	FrameShardWelcome: func(p []byte) ([]byte, error) {
		_, maxFrame, err := ParseShardWelcome(p)
		if err != nil {
			return nil, err
		}
		return AppendShardWelcome(nil, maxFrame), nil
	},
	FrameRegisterTenant: func(p []byte) ([]byte, error) {
		r, err := ParseRegisterTenant(p)
		if err != nil {
			return nil, err
		}
		return AppendRegisterTenant(nil, r)
	},
	FrameEnvelopeChunk: func(p []byte) ([]byte, error) {
		c, err := ParseEnvelopeChunk(p)
		if err != nil {
			return nil, err
		}
		return AppendEnvelopeChunk(nil, c)
	},
	FrameEnvelopeDone:     tenantRoundTrip(FrameEnvelopeDone),
	FrameQuiesce:          tenantRoundTrip(FrameQuiesce),
	FrameExportEnvelope:   tenantRoundTrip(FrameExportEnvelope),
	FrameDeregisterTenant: tenantRoundTrip(FrameDeregisterTenant),
	FrameFlushTenant:      tenantRoundTrip(FrameFlushTenant),
	FrameTenantOK: func(p []byte) ([]byte, error) {
		ok, err := ParseTenantOK(p)
		if err != nil {
			return nil, err
		}
		return AppendTenantOK(nil, ok)
	},
	FrameShardErr: func(p []byte) ([]byte, error) {
		e, err := ParseShardErr(p)
		if err != nil {
			return nil, err
		}
		return AppendShardErr(nil, e)
	},
	FrameSubmitBatch: func(p []byte) ([]byte, error) {
		tenant, evs, err := ParseSubmitBatch(p, nil)
		if err != nil {
			return nil, err
		}
		return AppendSubmitBatch(nil, tenant, evs)
	},
	FrameShardAck: func(p []byte) ([]byte, error) {
		tenant, wm, err := ParseShardAck(p)
		if err != nil {
			return nil, err
		}
		return AppendShardAck(nil, tenant, wm)
	},
	FrameShardNack: func(p []byte) ([]byte, error) {
		n, err := ParseShardNack(p)
		if err != nil {
			return nil, err
		}
		return AppendShardNack(nil, n)
	},
	FrameAlarmStream: func(p []byte) ([]byte, error) {
		tenant, idx, a, err := ParseAlarmStream(p)
		if err != nil {
			return nil, err
		}
		return AppendAlarmStream(nil, tenant, idx, a)
	},
	FrameAlarmStreamAck: func(p []byte) ([]byte, error) {
		tenant, idx, err := ParseAlarmStreamAck(p)
		if err != nil {
			return nil, err
		}
		return AppendAlarmStreamAck(nil, tenant, idx)
	},
	FrameResumeTenant: func(p []byte) ([]byte, error) {
		tenant, idx, err := ParseResumeTenant(p)
		if err != nil {
			return nil, err
		}
		return AppendResumeTenant(nil, tenant, idx)
	},
	FrameDrain: func(p []byte) ([]byte, error) {
		millis, err := ParseDrain(p)
		if err != nil {
			return nil, err
		}
		return AppendDrain(nil, millis), nil
	},
}

func tenantRoundTrip(t FrameType) func(p []byte) ([]byte, error) {
	return func(p []byte) ([]byte, error) {
		tenant, err := ParseTenantFrame(p)
		if err != nil {
			return nil, err
		}
		return AppendTenantFrame(nil, t, tenant)
	}
}

// FuzzFrameDecoders feeds arbitrary payloads to every frame decoder (the
// first input byte picks the frame type): no decoder may panic, and any
// payload a decoder accepts must re-encode to a frame that decodes to the
// same value, which re-encodes to the same bytes.
func FuzzFrameDecoders(f *testing.F) {
	ev := Event{Seq: 7, Time: time.Unix(1700000000, 5).UTC(), Device: "light", Value: 1}
	alarm := Alarm{Seq: 3, Score: 0.9, Abrupt: true, Events: []AlarmEvent{
		{Device: "light", State: 1, Score: 0.9, Context: []ContextEntry{{Name: "presence@t-1", State: 0}}},
	}}
	seed := func(frame []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[headerLen:])
	}
	seed(AppendHello(nil, "tok", "home"))
	seed(AppendHelloSession(nil, "tok", "home"))
	seed(AppendWelcome(nil, 1<<20), nil)
	seed(AppendEvent(nil, ev))
	seed(AppendEventRetx(nil, Event{Seq: 8, Device: "d", Value: math.NaN()}))
	seed(AppendNack(nil, Nack{Seq: 7, Code: CodeBackpressure, Detail: "full"}))
	seed(AppendAlarm(nil, alarm))
	seed(AppendResume(nil, "prod", 12))
	seed(AppendResumeOK(nil, 40, 12), nil)
	seed(AppendAck(nil, 40), nil)
	seed(AppendSessionAlarm(nil, 13, alarm))
	seed(AppendAlarmAck(nil, 13), nil)
	seed(AppendShardHello(nil, "tok", "router"))
	seed(AppendShardWelcome(nil, 1<<20), nil)
	seed(AppendRegisterTenant(nil, RegisterTenant{Tenant: "home", Flags: RegFlagHasState, Queue: 64, Policy: 1}))
	seed(AppendEnvelopeChunk(nil, EnvelopeChunk{Tenant: "home", Kind: EnvState, Data: []byte{1, 2, 3}}))
	seed(AppendTenantFrame(nil, FrameQuiesce, "home"))
	seed(AppendTenantOK(nil, TenantOK{Op: OpResume, Tenant: "home", Watermark: 9, AlarmIdx: 2}))
	seed(AppendShardErr(nil, ShardErr{Op: OpExport, Tenant: "home", Code: CodeUnknownTenant, Detail: "gone"}))
	seed(AppendSubmitBatch(nil, "home", []BatchEvent{{Link: 1, Ev: ev}, {Link: 2, Ev: ev}}))
	seed(AppendShardAck(nil, "home", 9))
	seed(AppendShardNack(nil, ShardNack{Tenant: "home", Link: 4, Code: CodeBackpressure, Detail: "full"}))
	seed(AppendAlarmStream(nil, "home", 5, alarm))
	seed(AppendAlarmStreamAck(nil, "home", 5))
	seed(AppendResumeTenant(nil, "home", 5))
	seed(AppendDrain(nil, 250), nil)

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		typ, payload := FrameType(in[0]), in[1:]
		rt, ok := roundTrips[typ]
		if !ok {
			return
		}
		first, err := rt(payload)
		if err != nil {
			return
		}
		if got := FrameType(first[headerLen]); got != typ {
			t.Fatalf("%s re-encoded as %s", typ, got)
		}
		second, err := rt(first[headerLen+1:])
		if err != nil {
			t.Fatalf("%s: re-encoded payload refused: %v", typ, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: decode(encode(v)) != v:\n% x\n% x", typ, first, second)
		}
	})
}
