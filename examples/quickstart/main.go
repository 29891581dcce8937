// Quickstart reproduces the paper's §3 tutorial application: a character
// string is converted to uppercase in parallel by splitting it into its
// individual characters, routing them round-robin over compute threads on
// several (virtual) cluster nodes, and merging the results back in order.
//
//	go run ./examples/quickstart ["some text"]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/dps"
)

// StringToken and CharToken are the tutorial's data objects. Registration
// (the paper's IDENTIFY macro) enables automatic serialization.
type StringToken struct {
	Str string
}

type CharToken struct {
	Chr byte
	Pos int
}

var (
	_ = dps.Register[StringToken]()
	_ = dps.Register[CharToken]()
)

func main() {
	input := "dynamic parallel schedules"
	if len(os.Args) > 1 {
		input = strings.Join(os.Args[1:], " ")
	}

	// A local "cluster" of three nodes in this process. Swap NewLocal for
	// NewSim to pay modelled network costs, or Connect kernel transports
	// (cmd/dps-kernel) for real TCP. The option selects the engine tuning:
	// a per-split flow-control window of 16 tokens.
	app, err := dps.NewLocal(
		dps.WithNodes("nodeA", "nodeB", "nodeC"),
		dps.WithWindow(16),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()

	// Thread collections and their dynamic mapping to nodes: two compute
	// threads on nodeB and one on nodeC, exactly the paper's
	// computeThreads->map("nodeA*2 nodeB") idiom.
	mainThread := dps.MustCollection[struct{}](app, "main")
	if err := mainThread.Map("nodeA"); err != nil {
		log.Fatal(err)
	}
	computeThreads := dps.MustCollection[struct{}](app, "proc")
	if err := computeThreads.Map("nodeB*2 nodeC"); err != nil {
		log.Fatal(err)
	}

	// The three stages of the split-compute-merge construct: the paper's
	//   FlowgraphNode<SplitString, MainRoute>(theMainThread) >>
	//   FlowgraphNode<ToUpperCase, RoundRobinRoute>(computeThreads) >>
	//   FlowgraphNode<MergeString, MainRoute>(theMainThread)
	// Each stage carries its token types, so a wiring mistake (say, the
	// merge before the leaf) is a compile error.
	splitString := dps.Split("SplitString", mainThread, dps.MainRoute(),
		func(c *dps.Ctx, in *StringToken, post func(*CharToken)) {
			for i := 0; i < len(in.Str); i++ {
				post(&CharToken{Chr: in.Str[i], Pos: i})
			}
		})
	roundRobin := dps.ByKey[*CharToken]("RoundRobinRoute",
		func(in *CharToken) int { return in.Pos })
	toUpperCase := dps.Leaf("ToUpperCase", computeThreads, roundRobin,
		func(c *dps.Ctx, in *CharToken) *CharToken {
			ch := in.Chr
			if ch >= 'a' && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			return &CharToken{Chr: ch, Pos: in.Pos}
		})
	mergeString := dps.Merge("MergeString", mainThread, dps.MainRoute(),
		func(c *dps.Ctx, first *CharToken, next func() (*CharToken, bool)) *StringToken {
			buf := make([]byte, 0)
			for in, ok := first, true; ok; in, ok = next() {
				for len(buf) <= in.Pos {
					buf = append(buf, 0)
				}
				buf[in.Pos] = in.Chr
			}
			return &StringToken{Str: string(buf)}
		})

	graph, err := dps.Build(app, "graph",
		dps.Then(dps.Then(dps.Chain(splitString), toUpperCase), mergeString))
	if err != nil {
		log.Fatal(err)
	}

	// The typed call: no assertion on the result, and the context cancels
	// the whole invocation if the caller gives up.
	out, err := graph.Call(context.Background(), &StringToken{Str: input})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in : %s\nout: %s\n", input, out.Str)
}
