package main

import (
	"fmt"
	"time"

	"repro/cmif"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
)

// The ladder replays a workload's own inputs against one module's public
// entry point in isolation, for the server-side layers the benchmark's
// spans cannot reach from outside the program.

const ladderMinDur = 200 * time.Millisecond

// docLadders times codec.DecodeBinary, codec.EncodeBinary and
// core.Document.Clone over docs, as means per document (the mix the
// workload draws from).
func docLadders(docs []*cmif.Document, out map[string]float64) []string {
	encs, cores, err := binaryDocs(docs)
	if err != nil {
		return []string{fmt.Sprintf("codec ladder skipped: %v", err)}
	}
	dec := ladder(20, 20000, ladderMinDur, func(i int) { _, _ = codec.DecodeBinary(encs[i%len(encs)]) })
	enc := ladder(20, 20000, ladderMinDur, func(i int) { _, _ = codec.EncodeBinary(cores[i%len(cores)]) })
	clone := ladder(20, 20000, ladderMinDur, func(i int) { _ = cores[i%len(cores)].Clone() })
	out["codec.decode_binary_us"] = durMean(dec)
	out["codec.encode_binary_us"] = durMean(enc)
	out["core.clone_us"] = durMean(clone)
	return nil
}

// binaryDocs encodes docs in the binary form and decodes them into the
// core documents the server-side modules work on.
func binaryDocs(docs []*cmif.Document) ([][]byte, []*core.Document, error) {
	var encs [][]byte
	var cores []*core.Document
	for _, d := range docs {
		data, err := cmif.Encode(d, cmif.WithFormat(cmif.FormatBinary))
		if err != nil {
			return nil, nil, err
		}
		cd, err := codec.DecodeBinary(data)
		if err != nil {
			return nil, nil, err
		}
		encs = append(encs, data)
		cores = append(cores, cd)
	}
	return encs, cores, nil
}

// compressLadder times codec.CompressFrame over the workload's payloads,
// per MiB of input. The ratio counts a bypassed (incompressible) payload
// at its raw size, as the wire sends it.
func compressLadder(payloads [][]byte, out map[string]float64) {
	if len(payloads) == 0 {
		return
	}
	var in, wire int64
	comp := ladder(len(payloads), 100*len(payloads), ladderMinDur, func(i int) {
		p := payloads[i%len(payloads)]
		c, ok := codec.CompressFrame(p)
		in += int64(len(p))
		if ok {
			wire += int64(len(c))
		} else {
			wire += int64(len(p))
		}
	})
	out["codec.compress_us_per_mb"] = us(durSum(comp)) / (float64(in) / (1 << 20))
	out["codec.compress_ratio"] = float64(wire) / float64(in)
}

// splitLadder times chunker.Split over the workload's payloads, per MiB.
func splitLadder(payloads [][]byte, out map[string]float64) {
	if len(payloads) == 0 {
		return
	}
	var split int64
	sp := ladder(len(payloads), 100*len(payloads), ladderMinDur, func(i int) {
		p := payloads[i%len(payloads)]
		_ = chunker.Split(p, chunker.Config{})
		split += int64(len(p))
	})
	out["chunker.split_us_per_mb"] = us(durSum(sp)) / (float64(split) / (1 << 20))
}

// getRefLadder times media.Store.GetRef over ids, in ns per lookup.
func getRefLadder(store *cmif.Store, ids []string) float64 {
	if len(ids) == 0 {
		return 0
	}
	const batch = 1000 // one lookup is below the clock's resolution
	d := ladder(20, 100000, ladderMinDur, func(i int) {
		for j := 0; j < batch; j++ {
			_, _ = store.GetRef(ids[(i*batch+j)%len(ids)])
		}
	})
	return float64(durSum(d).Nanoseconds()) / float64(len(d)*batch)
}
