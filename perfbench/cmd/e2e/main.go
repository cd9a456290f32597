// Command e2e is the benchmark's untraced runner: it drives one workload
// through the public sonet API only and prints the gated end-to-end
// metrics as the last line of its output.
//
//	go run ./cmd/e2e --workload relay-small --seed 1 --seconds 10
package main

import (
	"os"

	"sonet/perfbench/bench"
)

func main() { os.Exit(bench.Main(os.Args[1:], os.Stdout)) }
