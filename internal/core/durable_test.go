package core

import (
	"encoding/hex"
	"testing"
	"time"
)

// TestLogLineCodecGoldenBytes pins the durable learner log line layout
// byte for byte.
func TestLogLineCodecGoldenBytes(t *testing.T) {
	line := LogLine{JobID: "training-000001", Learner: 2, Offset: 300, Time: time.Unix(1700000000, 5), Text: "iteration 10/40"}
	const want = "0f747261696e696e672d30303030303104ac028a80d0e2c6bfce972f0f697465726174696f6e2031302f3430"
	if got := hex.EncodeToString(encodeLogLine(nil, line)); got != want {
		t.Fatalf("log line bytes changed:\n got %s\nwant %s", got, want)
	}
}

// FuzzLogLineRoundtrip fuzzes the learner log line codec: a line built
// from the inputs round-trips, a fuzz-chosen proper prefix of its
// encoding errors, and arbitrary bytes never panic. logLineText reads
// the same Text as decodeLogLine and accepts exactly what it accepts.
func FuzzLogLineRoundtrip(f *testing.F) {
	f.Add("training-000001", 2, uint64(300), int64(1700000000000000005), "iteration 10/40", uint(3), []byte{})
	f.Add("", -1, uint64(1<<63), int64(-1), "", uint(0), []byte{0x01, 'j', 0x00, 0x00, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, jobID string, learner int, offset uint64, ns int64, text string, cut uint, raw []byte) {
		want := LogLine{JobID: jobID, Learner: learner, Offset: offset, Time: time.Unix(0, ns), Text: text}
		data := encodeLogLine(nil, want)
		got, err := decodeLogLine(data)
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if got.JobID != want.JobID || got.Learner != want.Learner || got.Offset != want.Offset ||
			!got.Time.Equal(want.Time) || got.Text != want.Text {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
		if text, err := logLineText(data); err != nil || string(text) != want.Text {
			t.Fatalf("logLineText = %q, %v; want %q", text, err, want.Text)
		}
		n := int(cut % uint(len(data)))
		if _, err := decodeLogLine(data[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
		}
		if _, err := logLineText(data[:n]); err == nil {
			t.Fatalf("logLineText of %d/%d-byte prefix succeeded", n, len(data))
		}
		line, err := decodeLogLine(raw)
		if text, terr := logLineText(raw); (err == nil) != (terr == nil) || (err == nil && string(text) != line.Text) {
			t.Fatalf("raw input: decodeLogLine %q, %v; logLineText %q, %v", line.Text, err, text, terr)
		}
	})
}
