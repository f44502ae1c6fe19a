// Quickstart: the paper's running example (Example 1 / Example 8).
//
// N producer tasks each send messages to one consumer task; the protocol
// — producer 1's message must reach the consumer before producer 2's, and
// so on, round-robin — lives entirely in the connector definition. The
// tasks contain no synchronization code at all: they just send and
// receive on their ports.
//
// The protocol is compiled once, at run time, and instantiated at the
// requested number of producers (see README.md for the walkthrough):
//
//	go run ./examples/quickstart -n 5
package main

import (
	"flag"
	"fmt"
	"log"

	reo "repro"
)

// The protocol module (Fig. 9 of the paper): parametric in the number of
// producers. X buffers a producer's message and exposes ordering hooks
// (prev/next) that the Seq primitives chain into a global round-robin.
// ordered.reo holds the same definitions for the reoc inspection commands.
const protocol = `
X(tl;prev,next,hd) =
    Replicator(tl;prev,v) mult Fifo1(v;w) mult Replicator(w;next,hd)

Ordered(tl[];hd[]) =
    if (#tl == 1) {
        Fifo1(tl[1];hd[1])
    } else {
        prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
        mult prod (i:1..#tl-1) Seq(next[i],prev[i+1];)
        mult Seq(prev[1],next[#tl];)
    }

main(N) = Ordered(out[1..N];in[1..N]) among
    forall (i:1..N) Tasks.producer(out[i]) and Tasks.consumer(in[1..N])
`

func main() {
	n := flag.Int("n", 4, "number of producers")
	rounds := flag.Int("rounds", 3, "messages per producer")
	flag.Parse()

	prog, err := reo.Compile(protocol)
	if err != nil {
		log.Fatal(err)
	}

	// The task modules: no locks, no channels, no auxiliary messages —
	// only port operations (the generalized Foster-Chandy model).
	tasks := reo.Tasks{
		"Tasks.producer": func(tp reo.TaskPorts) error {
			out := tp.Outs[0]
			for r := 0; r < *rounds; r++ {
				if err := out.Send(fmt.Sprintf("%s says hello (round %d)", out.Name(), r)); err != nil {
					return err
				}
			}
			return nil
		},
		"Tasks.consumer": func(tp reo.TaskPorts) error {
			for r := 0; r < *rounds; r++ {
				for _, in := range tp.Ins {
					v, err := in.Recv()
					if err != nil {
						return err
					}
					fmt.Println("consumer got:", v)
				}
			}
			return nil
		},
	}

	res, err := prog.Run(map[string]int{"N": *n}, tasks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndone: %d tasks, %d global connector steps\n", res.TaskCount, res.Steps)
}
