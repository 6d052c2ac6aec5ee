package pe_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/tie"
)

// BenchmarkHandoff times one operation of each kind of path between a
// program and its core, on a whole core.Build system so the engine's share
// of a switch is in it: a compute cycle and an L1 hit retire on the
// program's side, a miss crosses to the core and through bridge, network
// and memory node, a message round trip crosses twice on two cores.
func BenchmarkHandoff(b *testing.B) {
	const conflict = 2 << 10 // two lines this far apart share a set of the 2 kB L1
	benches := []struct {
		name  string
		cores int
		progs func(sys *core.System, n int) []pe.Program
	}{
		{"compute", 1, func(_ *core.System, n int) []pe.Program {
			return []pe.Program{func(env *pe.Env) {
				for i := 0; i < n; i++ {
					env.Compute(1)
				}
			}}
		}},
		{"load-hit", 1, func(sys *core.System, n int) []pe.Program {
			addr := sys.Map.PrivateAddr(0, 0)
			return []pe.Program{func(env *pe.Env) {
				for i := 0; i < n; i++ {
					env.LoadWord(addr)
				}
			}}
		}},
		{"load-miss", 1, func(sys *core.System, n int) []pe.Program {
			addr := sys.Map.PrivateAddr(0, 0)
			return []pe.Program{func(env *pe.Env) {
				for i := 0; i < n; i++ {
					env.LoadWord(addr + uint32(i&1)*conflict)
				}
			}}
		}},
		{"send-recv", 2, func(sys *core.System, n int) []pe.Program {
			word := []uint32{1}
			return []pe.Program{
				func(env *pe.Env) {
					for i := 0; i < n; i++ {
						env.Send(sys.NodeOf(1), tie.Data, word)
						env.Recv(sys.NodeOf(1), tie.Data)
					}
				},
				func(env *pe.Env) {
					for i := 0; i < n; i++ {
						env.Recv(sys.NodeOf(0), tie.Data)
						env.Send(sys.NodeOf(0), tie.Data, word)
					}
				},
			}
		}},
	}
	for _, bm := range benches {
		b.Run(bm.name, func(b *testing.B) {
			sys, err := core.Build(core.DefaultConfig(bm.cores, 2, cache.WriteBack))
			if err != nil {
				b.Fatal(err)
			}
			sys.Launch(bm.progs(sys, b.N))
			b.ReportAllocs()
			b.ResetTimer()
			if err := sys.RunCtx(context.Background(), 1<<62); err != nil {
				b.Fatal(err)
			}
		})
	}
}
