package dbiproto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to ReadFrame as a stream, reading
// frames with one reused buffer until it fails. It must never panic,
// never grow the buffer past MaxFrame, and every frame it accepts must
// re-encode to exactly the bytes it consumed.
//
//	go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 30s ./pkg/dbiproto
func FuzzReadFrame(f *testing.F) {
	one := AppendFrame(nil, Frame{Version: 1, Op: OpSet, Seq: 7, Payload: AppendKeys(nil, []uint64{1, 2})})
	f.Add(one)
	f.Add(append(append([]byte{}, one...), AppendFrame(nil, Frame{Version: 1, Op: OpPing, Seq: 8})...))
	f.Add(one[:len(one)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{2, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			before := len(data) - r.Len()
			fr, b, err := ReadFrame(r, buf)
			buf = b
			if cap(buf) > MaxFrame {
				t.Fatalf("buffer grew to %d bytes, past MaxFrame", cap(buf))
			}
			if err != nil {
				var se *StatusError
				if !errors.As(err, &se) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				return
			}
			consumed := data[before : len(data)-r.Len()]
			if re := AppendFrame(nil, fr); !bytes.Equal(re, consumed) {
				t.Fatalf("frame re-encodes to %x, read from %x", re, consumed)
			}
		}
	})
}

// FuzzDecodeKeys feeds arbitrary payloads to DecodeKeys. It must never
// panic or hold more than MaxBatch keys (MaxFrame bytes); a batch it
// accepts must consume 8 bytes per key after the count, leave the rest
// untouched, and survive a re-encode.
//
//	go test -run '^$' -fuzz '^FuzzDecodeKeys$' -fuzztime 30s ./pkg/dbiproto
func FuzzDecodeKeys(f *testing.F) {
	f.Add(AppendKeys(nil, []uint64{5, 0x0102030405060708}))
	f.Add(AppendKeys(nil, nil))
	f.Add(append(AppendKeys(nil, []uint64{1}), 0xaa, 0xbb))
	f.Add([]byte{3, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, p []byte) {
		keys, rest, err := DecodeKeys(p, nil)
		if len(keys) > MaxBatch || 8*cap(keys) > MaxFrame {
			t.Fatalf("decoded %d keys into capacity %d", len(keys), cap(keys))
		}
		if err != nil {
			if len(keys) != 0 {
				t.Fatalf("failed decode returned %d keys", len(keys))
			}
			return
		}
		if used := len(p) - len(rest); used < 1+8*len(keys) || !bytes.Equal(rest, p[used:]) {
			t.Fatalf("%d keys consumed %d of %d bytes", len(keys), used, len(p))
		}
		again, tail, err := DecodeKeys(AppendKeys(nil, keys), nil)
		if err != nil || len(tail) != 0 || len(again) != len(keys) {
			t.Fatalf("re-encoded batch decodes to %d keys, %d trailing bytes, err %v", len(again), len(tail), err)
		}
		for i := range keys {
			if again[i] != keys[i] {
				t.Fatalf("key %d: %#x re-decodes as %#x", i, keys[i], again[i])
			}
		}
	})
}
