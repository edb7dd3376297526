package simnet

import (
	"reflect"
	"testing"
	"time"
)

// record is a struct payload shaped like a pushed registration: boxing
// it into an any copies it to the heap.
type record struct {
	name  string
	attrs map[string]string
	stamp time.Duration
}

// TestPostAllocFree: with tracing off, a warm Post of a struct to a Serve
// endpoint of the same type allocates nothing. The leg comes from the
// endpoint's own free list, and the struct rides in it by value.
func TestPostAllocFree(t *testing.T) {
	eng, n := testNet(t, 1)
	var got record
	delivered := 0
	Serve(n.Host("b1"), "sink", func(_ string, r record) (struct{}, error) {
		got, delivered = r, delivered+1
		return struct{}{}, nil
	})
	msg := record{name: "n1", attrs: map[string]string{"cpu": "4"}, stamp: time.Second}
	post := func() {
		Post(n, "a1", "b1", "sink", msg)
		eng.Run()
	}
	post() // warm the event heap and the endpoint's free list
	if allocs := testing.AllocsPerRun(200, post); allocs != 0 {
		t.Errorf("Post plus delivery allocates %.1f objects, want 0", allocs)
	}
	if delivered != 202 || !reflect.DeepEqual(got, msg) {
		t.Errorf("delivered %d of 202 posts, the last %+v", delivered, got)
	}
	if err := n.checkLegs(true); err != nil {
		t.Fatal(err)
	}
	if n.legs.made != 0 {
		t.Errorf("%d boxed legs made for posts to a typed endpoint, want 0", n.legs.made)
	}
}

// TestPostBoxesElsewhere: a Post reaches anything but a Serve endpoint of
// its own type boxed, exactly as a Send would deliver it: an untyped
// Handle (the bench replay's tap asserts raw.(T)), an endpoint of another
// type (which refuses it before its handler runs), and an endpoint
// swapped while the leg flew, in either direction.
func TestPostBoxesElsewhere(t *testing.T) {
	msg := record{name: "n1", attrs: map[string]string{"cpu": "4"}, stamp: time.Second}
	for _, tc := range []struct {
		name         string
		first, later string // the endpoint at departure, and the one swapped in before landing ("" for none)
		boxed        bool   // the leg came from the network's boxed pool
		want         string // the endpoint that received msg ("" for none)
	}{
		{name: "typed", first: "typed", boxed: false, want: "typed"},
		{name: "untyped handle", first: "untyped", boxed: true, want: "untyped"},
		{name: "other type", first: "int", boxed: true},
		{name: "typed swapped for untyped", first: "typed", later: "untyped", want: "untyped"},
		{name: "untyped swapped for typed", first: "untyped", later: "typed", boxed: true, want: "typed"},
		{name: "typed swapped for typed", first: "typed", later: "typed", want: "typed"},
	} {
		eng, n := testNet(t, 1)
		b1 := n.Host("b1")
		var got []string
		install := func(kind string) {
			switch kind {
			case "typed":
				Serve(b1, "svc", func(_ string, r record) (struct{}, error) {
					if reflect.DeepEqual(r, msg) {
						got = append(got, kind)
					}
					return struct{}{}, nil
				})
			case "untyped":
				b1.Handle("svc", func(_ string, raw any) (any, error) {
					if r, ok := raw.(record); ok && reflect.DeepEqual(r, msg) {
						got = append(got, kind)
					}
					return nil, nil
				})
			case "int":
				Serve(b1, "svc", func(string, int) (struct{}, error) {
					got = append(got, kind)
					return struct{}{}, nil
				})
			}
		}
		install(tc.first)
		Post(n, "a1", "b1", "svc", msg)
		if tc.later != "" {
			eng.RunUntil(time.Millisecond)
			install(tc.later)
		}
		eng.Run()
		var want []string
		if tc.want != "" {
			want = []string{tc.want}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: delivered to %v, want %v", tc.name, got, want)
		}
		if boxed := n.legs.made == 1; boxed != tc.boxed || b1.MsgsRecv != 1 {
			t.Errorf("%s: boxed leg %v, want %v; %d received", tc.name, boxed, tc.boxed, b1.MsgsRecv)
		}
		if err := n.checkLegs(true); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
