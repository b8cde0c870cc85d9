package service

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// pinnedKeys are exact- and sampled-fidelity cache keys that durable
// snapshots, cluster replicas and the perfbench references already hold:
// Key must keep producing these bytes for these computations.
var pinnedKeys = []struct {
	req Request
	key string
}{
	{Request{Experiment: "fig12"}, "271a15c63b86b7af"},
	{Request{Experiment: "fig1"}, "66229e774b130b28"},
	{Request{Experiment: "fig12", Scale: 0.5}, "9060629f7c2909a8"},
	{Request{Experiment: "fig12", Frames: 1}, "0307a114d5951cf0"},
	{Request{Experiment: "fig12", Apps: []string{"Dirt"}}, "0db353ed7e269f4e"},
	{Request{Experiment: "fig12", Apps: []string{"Dirt"}, Scale: 0.1, Fidelity: "sampled"}, "48d94a0d8ed86aa7"},
}

func fuzzRequest(exp, apps, fid string, scale, capf float64, frames, ratio int, seed uint64) Request {
	r := Request{Experiment: exp, Fidelity: fid, Scale: scale, CapacityFactor: capf,
		Frames: frames, SampleRatio: ratio, SampleSeed: seed}
	if apps != "" {
		r.Apps = strings.Split(apps, ",")
	}
	return r
}

// keyed strips the fields Key deliberately ignores (they shape execution,
// never the result), leaving the computation's identity.
func keyed(r Request) Request {
	r.Workers, r.TimeoutMS = 0, 0
	return r
}

// FuzzRequestKey checks request canonicalization, the cache's notion of
// "the same computation", over arbitrary pairs of requests:
//   - Normalize either accepts or returns a BadRequestError;
//   - an accepted request is a fixed point: normalizing it again changes
//     neither the request nor its Key;
//   - accepted Scale and CapacityFactor are finite and within (0, 4];
//   - two accepted requests share a key exactly when they normalize to
//     the same computation;
//   - a request normalizing to a pinned computation gets the pinned key.
func FuzzRequestKey(f *testing.F) {
	var pins []Request
	for _, p := range pinnedKeys {
		n, err := p.req.Normalize()
		if err != nil {
			f.Fatal(err)
		}
		if got := n.Key(); got != p.key {
			f.Fatalf("key of %+v = %s, pinned %s", p.req, got, p.key)
		}
		pins = append(pins, keyed(n))
	}
	f.Add("fig12", "", "", 0.25, 1.5, 0, 0, uint64(0), "fig12", "", "exact", 0.0, 0.0, -1, 0, uint64(0))
	f.Add("fig12", "Dirt", "sampled", 0.1, 0.0, 1, 0, uint64(0), "fig12", " Dirt,Dirt", "sampled", 0.1, 0.0, 1, 16, uint64(1))
	f.Add("fig1", "HAWX,Dirt", "", 1.0, 0.0, 0, 0, uint64(0), "fig1", "Dirt,HAWX", "", 1.0, 1.0, 0, 7, uint64(9))
	f.Add("fig12", "", "", math.NaN(), 1e6, 0, 0, uint64(0), "fig12", "", "", 0.25, math.Inf(-1), 0, 0, uint64(0))
	f.Fuzz(func(t *testing.T,
		expA, appsA, fidA string, scaleA, capfA float64, framesA, ratioA int, seedA uint64,
		expB, appsB, fidB string, scaleB, capfB float64, framesB, ratioB int, seedB uint64) {
		var norm [2]Request
		var ok [2]bool
		for i, r := range []Request{
			fuzzRequest(expA, appsA, fidA, scaleA, capfA, framesA, ratioA, seedA),
			fuzzRequest(expB, appsB, fidB, scaleB, capfB, framesB, ratioB, seedB),
		} {
			n, err := r.Normalize()
			if err != nil {
				var bad *BadRequestError
				if !errors.As(err, &bad) {
					t.Fatalf("Normalize(%+v) error %v is not a BadRequestError", r, err)
				}
				continue
			}
			again, err := n.Normalize()
			if err != nil || !reflect.DeepEqual(again, n) || again.Key() != n.Key() {
				t.Fatalf("Normalize not idempotent on %+v: %+v, %v", n, again, err)
			}
			for _, v := range []float64{n.Scale, n.CapacityFactor} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > 4 {
					t.Fatalf("accepted %+v carries out-of-range scale or capacity factor", n)
				}
			}
			for j, p := range pins {
				if reflect.DeepEqual(keyed(n), p) && n.Key() != pinnedKeys[j].key {
					t.Fatalf("%+v normalizes to pinned %+v but keys %s, not %s", r, p, n.Key(), pinnedKeys[j].key)
				}
			}
			norm[i], ok[i] = n, true
		}
		if !ok[0] || !ok[1] {
			return
		}
		same := reflect.DeepEqual(keyed(norm[0]), keyed(norm[1]))
		if shared := norm[0].Key() == norm[1].Key(); shared != same {
			t.Fatalf("same computation = %v but shared key = %v:\n%+v\n%+v", same, shared, norm[0], norm[1])
		}
	})
}
