package distengine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// captureStreams runs one small 2-worker job through wire_test's tap
// listeners and returns every recorded byte stream (both directions of
// every connection) — real protocol traffic as fuzz seeds.
func captureStreams(f *testing.F) [][]byte {
	f.Helper()
	const workers = 2
	addrs := make([]string, workers)
	taps := make([]*tapListener, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Fatal(err)
		}
		tl := &tapListener{Listener: l}
		taps[i] = tl
		addrs[i] = l.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeWorker(transport.WrapListener(tl))
		}()
	}
	defer wg.Wait()
	defer func() {
		for _, tl := range taps {
			tl.Listener.Close()
		}
	}()

	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	if _, err := New(addrs).SegmentContext(context.Background(), im, core.Config{Threshold: 10, Tie: rag.SmallestID}, core.Run{}); err != nil {
		f.Fatal(err)
	}

	var streams [][]byte
	for _, tl := range taps {
		tl.mu.Lock()
		for _, c := range tl.conns {
			streams = append(streams, bytes.Clone(c.in.Bytes()), bytes.Clone(c.out.Bytes()))
		}
		tl.mu.Unlock()
	}
	return streams
}

// FuzzReadFrame: the frame decoder — and the payload decoders behind it
// — must neither panic nor commit unbounded memory on arbitrary bytes,
// because they are exactly what a malicious or corrupt peer controls.
// Seeds are captured live protocol traffic plus adversarial headers
// (oversized and lying length prefixes, truncation points).
func FuzzReadFrame(f *testing.F) {
	for _, s := range captureStreams(f) {
		f.Add(s)
	}
	// A frame whose length prefix exceeds the MaxFrame bound.
	huge := make([]byte, 5)
	huge[0] = byte(frameJob)
	binary.BigEndian.PutUint32(huge[1:], transport.MaxFrame+1)
	f.Add(huge)
	// A frame that declares MaxFrame bytes but delivers three: the
	// decoder must fail on the missing bytes without allocating the
	// claimed quarter-gigabyte.
	lying := make([]byte, 8)
	lying[0] = byte(frameResult)
	binary.BigEndian.PutUint32(lying[1:], transport.MaxFrame)
	f.Add(lying)
	f.Add([]byte{})
	f.Add([]byte{byte(frameAbort), 0, 0, 0, 0})
	f.Add([]byte{byte(frameReduce), 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := transport.ReadFrame(r)
			if err != nil {
				return
			}
			// The typed payload decoders sit directly behind ReadFrame on
			// both peers; they must be as panic-free as the framing.
			switch frameType(fr.Type) {
			case frameJob:
				_, _ = decodeJob(fr.Payload)
			case frameReduce:
				_, _, _, _ = decodeReduce(fr.Payload)
			case frameGather:
				_, _, _ = decodeGather(fr.Payload)
			case frameExchange:
				_, _, _ = decodeExchange(fr.Payload)
			case frameExchangeMax:
				_, _, _, _ = decodeExchangeMax(fr.Payload)
			case frameExchangeResult:
				_, _, _ = decodeExchangeResult(fr.Payload)
			case frameExchangeMaxResult:
				_, _, _ = decodeExchangeMaxResult(fr.Payload)
			case frameResult:
				_, _ = decodeResult(fr.Payload)
			case frameEvent:
				_, _ = decodeEvent(fr.Payload)
			}
		}
	})
}
