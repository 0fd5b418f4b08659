package rag

import (
	"context"
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// benchThreshold is the layer benchmarks' T, the paper's.
const benchThreshold = 10

// benchSplit is one input of the layer benchmarks, already split.
type benchSplit struct {
	name string
	sp   *quadsplit.Result
}

// benchSplits splits the layer benchmarks' two inputs at benchThreshold:
// noise-512, whose squares are nearly all single pixels, and the 1024²
// circles dithered by ±4, the middle image of the large-native workload.
func benchSplits(b *testing.B) []benchSplit {
	b.Helper()
	out := []benchSplit{{name: "noise-512"}, {name: "circles-1024"}}
	for i, im := range []*pixmap.Image{
		pixmap.Random(512, 1),
		pixmap.CircleCollection(1024, pixmap.GenOptions{Noise: 4, Seed: 1}),
	} {
		sp, err := quadsplit.Split(context.Background(), im, benchThreshold, quadsplit.Options{})
		if err != nil {
			b.Fatal(err)
		}
		out[i].sp = sp
	}
	return out
}

// graph builds the graph of the split's squares, as core's pipeline does.
func (c benchSplit) graph(b *testing.B) *Graph {
	g := NewGraph(benchThreshold)
	if err := g.AddSquares(context.Background(), c.sp.Squares, c.sp.Edges, c.sp.W, 0, c.sp.W); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAddSquares times the graph build alone: the split runs before
// the timer starts.
func BenchmarkAddSquares(b *testing.B) {
	for _, c := range benchSplits(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.graph(b)
			}
		})
	}
}

// BenchmarkMergeAll times the merge rounds alone, under each tie policy:
// every iteration merges a fresh build, made with the timer stopped.
func BenchmarkMergeAll(b *testing.B) {
	for _, c := range benchSplits(b) {
		for _, policy := range AllTiePolicies() {
			b.Run(c.name+"/"+policy.String(), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					b.StopTimer()
					g := c.graph(b)
					b.StartTimer()
					if _, err := g.MergeAll(context.Background(), policy, 1, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
