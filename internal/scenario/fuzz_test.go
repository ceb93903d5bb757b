package scenario

import (
	"bytes"
	"testing"
)

// The fuzz layer guards the two JSON surfaces users feed files into:
// strict Spec decoding and preset decoding. Properties: no input may
// panic the decoder, and any accepted input must reach a canonical fixed
// point — encoding what was decoded, then decoding and encoding again,
// yields the same bytes. (DeepEqual round-tripping is deliberately not
// asserted: JSON cannot distinguish nil from empty slices, but the
// canonical encoding must still be stable after one normalization pass.)

func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{"system":"offload","knobs":{"workers":4,"outstanding":4,"slice":"10µs"}}`))
	f.Add([]byte(`{"system":"rss","workload":"exp:10µs","load":{"rps":100000},"seed":3}`))
	f.Add([]byte(`{"system":"offload","seed":7,"faults":{"nic_crash":[{"start":"10ms","end":"14ms"}],"timeout":"1ms","retries":3,"degrade":true}}`))
	f.Add([]byte(`{"system":"offload","seed":7,"faults":{"loss_rate":0.05,"loss_bursts":{"n":4,"horizon":"150ms","mean_len":"250µs"},"delay_extra":"20µs","timeout":500000}}`))
	f.Add([]byte(`{"system":"flowrule","seed":7,"flow":{"flows":4096},"knobs":{"workers":1,"offload_threshold":16,"adaptive_threshold":true}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"faults":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return
		}
		enc1, err := sp.Encode()
		if err != nil {
			// Decoded values must encode; anything else is a parser
			// accepting what the encoder cannot represent.
			t.Fatalf("Encode after Decode failed: %v", err)
		}
		sp2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("Decode of canonical encoding failed: %v\n%s", err, enc1)
		}
		enc2, err := sp2.Encode()
		if err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}

func FuzzPresetDecode(f *testing.F) {
	f.Add([]byte(`{"id":"x","series":[{"label":"a","system":"rss"}]}`))
	f.Add([]byte(`{"id":"f","workload":"bimodal:0.995:5µs:100µs","load":{"grid":{"lo":100000,"hi":300000,"step":100000}},"seed":7,"series":[{"label":"y","system":"offload","knobs":{"workers":4},"faults":{"timeout":"1ms","degrade":true}}]}`))
	f.Add([]byte(`{"id":"t","series":[{"label":"mt","tenants":[{"name":"a","rps":1000,"workload":"exp:10µs"}]}]}`))
	f.Add([]byte(`{"id":"fr","workload":"fixed:170ns","flow":{"flows":4096},"load":{"rps":400000,"fsweep":{"lo":4096,"hi":1048576,"mul":4}},"seed":7,"series":[{"label":"t16","system":"flowrule","knobs":{"workers":1,"offload_threshold":16},"quality":{"warmup":10000,"measure":30000}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePreset(data)
		if err != nil {
			return
		}
		enc1, err := p.Encode()
		if err != nil {
			t.Fatalf("Encode after DecodePreset failed: %v", err)
		}
		p2, err := DecodePreset(enc1)
		if err != nil {
			t.Fatalf("DecodePreset of canonical encoding failed: %v\n%s", err, enc1)
		}
		enc2, err := p2.Encode()
		if err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
		// SpecFor inheritance must never panic for any series index.
		for i := range p2.Series {
			_ = p2.SpecFor(i)
		}
	})
}
