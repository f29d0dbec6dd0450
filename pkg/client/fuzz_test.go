package client

import (
	"context"
	"fmt"
	"testing"

	"gsgcn/internal/serve"
)

// FuzzShapesAndTransports is the serving plane's one differential
// oracle for "same bytes whatever the deployment". Each input decodes
// to a sequence of queries and reloads (decodeOps). Every query runs
// against an unsharded model and a 3-shard one, each reached over
// json, wire and tcp, and its six outcomes — answer or *APIError —
// must be exact copies of one another, float bits included. The one
// exception is docs/API.md's: an answer given in mode=ann is compared
// only across transports at the same shard count, since each shard
// walks its own index. A reload moves both deployments to the other of
// two checkpoints, in lockstep, so versions and model versions must
// agree too. The fixture is built once per process and its state
// carries from input to input; both deployments share it, so any
// state is a valid starting point. The committed corpus
// (testdata/fuzz/FuzzShapesAndTransports) runs as a plain test in
// every `go test`; `make fuzz` also mutates it.
func FuzzShapesAndTransports(f *testing.F) {
	fx := startShapes(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, op := range decodeOps(context.Background(), data) {
			if op.run == nil {
				fx.reload(t)
				continue
			}
			var got [2][3]any
			for s := range fx.clients {
				for i, c := range fx.clients[s] {
					res, err := op.run(c)
					got[s][i] = outcome(t, res, err)
				}
			}
			for s := range got {
				compareOutcomes(t, op.label+" at "+shapes[s], got[s])
			}
			if !annAnswer(got[0][0]) || !annAnswer(got[1][0]) {
				if exact(got[1][0]) != exact(got[0][0]) {
					t.Errorf("%s: %s differs from %s:\n %s: %+v\n %s: %+v",
						op.label, shapes[1], shapes[0], shapes[0], got[0][0], shapes[1], got[1][0])
				}
			}
		}
	})
}

// shapes names the two deployments FuzzShapesAndTransports compares.
var shapes = [2]string{"1 shard", "3 shards"}

// shapesFixture is one registry serving the same graph as an unsharded
// model and a 3-shard one, with a client per (deployment, transport).
type shapesFixture struct {
	servers [2]*serve.Server
	clients [2][3]Client
	ckpts   [2]string
	cur     int // index into ckpts of the loaded checkpoint
}

func startShapes(tb testing.TB) *shapesFixture {
	tb.Helper()
	ds := testGraph()
	fx := &shapesFixture{ckpts: [2]string{saveCheckpoint(tb, ds, 3), saveCheckpoint(tb, ds, 5)}}
	reg := serve.NewRegistry()
	tb.Cleanup(reg.Close)
	opts := serve.Options{Workers: 2, ANN: true, ANNEf: 16}
	var err error
	if fx.servers[0], err = reg.Add("one", ds, opts); err != nil {
		tb.Fatal(err)
	}
	if fx.servers[1], err = reg.AddSharded("three", ds, opts, 3, 42); err != nil {
		tb.Fatal(err)
	}
	for _, s := range fx.servers {
		if _, err := s.Load(fx.ckpts[fx.cur]); err != nil {
			tb.Fatal(err)
		}
	}
	httpURL, tcpAddr := serveRegistry(tb, reg)
	for s, model := range []string{"one", "three"} {
		fx.clients[s] = clients(tb, &fleet{httpURL: httpURL, tcpAddr: tcpAddr, model: model})
	}
	return fx
}

// reload moves both deployments to the other checkpoint.
func (fx *shapesFixture) reload(t *testing.T) {
	t.Helper()
	fx.cur ^= 1
	for _, s := range fx.servers {
		if _, err := s.Load(fx.ckpts[fx.cur]); err != nil {
			t.Fatal(err)
		}
	}
}

// annAnswer reports whether o is a top-K answer the HNSW walk gave.
func annAnswer(o any) bool {
	r, ok := o.(*serve.TopKResult)
	return ok && r.Mode == serve.ModeANN
}

// fuzzOp is one step of a decoded input: a query, or (run nil) a
// reload.
type fuzzOp struct {
	label string
	run   func(Client) (any, error)
}

// fuzzModes are the top-K modes an input picks from: the default
// (ann, on the fixture's models), both explicit ones and an unknown one.
var fuzzModes = [4]string{"", "exact", "ann", "bogus"}

// maxFuzzOps bounds the work one input can ask for.
const maxFuzzOps = 32

// decodeOps reads data as a sequence of ops, one opcode byte each
// (taken mod 4), then its operands, one byte each (0 past the end):
//
//	0 n id…          embed 1+n%8 ids
//	1 n id…          predict 1+n%8 ids
//	2 id k mode ef   top-K, mode = fuzzModes[mode%4]
//	3                reload
//
// A byte spans the valid/invalid boundary of every operand on the
// fixture's 120-vertex graph: ids and k past the graph, k and ef 0
// (unset), ef beside a mode it does not apply to. The operands stay in
// the domain every transport can express: ids and k non-negative and
// under ten digits, at least one id per query.
func decodeOps(ctx context.Context, data []byte) []fuzzOp {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var ops []fuzzOp
	for len(data) > 0 && len(ops) < maxFuzzOps {
		switch op := next() % 4; op {
		case 0, 1:
			ids := make([]int, 1+next()%8)
			for i := range ids {
				ids[i] = next()
			}
			predict := op == 1
			ops = append(ops, fuzzOp{fmt.Sprintf("%s%v", [2]string{"embed", "predict"}[op], ids),
				func(c Client) (any, error) {
					if predict {
						return c.Predict(ctx, ids)
					}
					return c.Embed(ctx, ids)
				}})
		case 2:
			q := TopKQuery{ID: next(), K: next(), Mode: fuzzModes[next()%4], Ef: next()}
			ops = append(ops, fuzzOp{fmt.Sprintf("topk%+v", q),
				func(c Client) (any, error) { return c.TopK(ctx, q) }})
		default:
			ops = append(ops, fuzzOp{label: "reload"})
		}
	}
	return ops
}
