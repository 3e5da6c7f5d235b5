package overlay

import (
	"errors"
	"fmt"

	"hfc/internal/routing"
	"hfc/internal/svc"
)

// ExecutionTrace records what actually happened to a stream forwarded along
// a service path through the live overlay.
type ExecutionTrace struct {
	// Applied lists the service applications in order, as "service@node".
	Applied []string
	// Forwards is the number of node-to-node transmissions.
	Forwards int
	// Payload is the final transformed payload.
	Payload string
}

// dataMsg is the data-plane envelope: the stream walks the hop list, each
// proxy applying its service (or just relaying), until the last hop replies.
type dataMsg struct {
	hops    []routing.Hop
	idx     int
	payload string
	trace   *ExecutionTrace
	reply   replyCell
}

// Execute pushes a payload along a concrete service path through the
// running system — the data plane to Route's control plane. Every proxy on
// the path checks that it really provides the service the path assigns to
// it (a stale or lying control plane surfaces here as an explicit error,
// not silent corruption) and transforms the payload by tagging it.
func (s *System) Execute(path *routing.Path, payload string) (*ExecutionTrace, error) {
	if path == nil || len(path.Hops) == 0 {
		return nil, errors.New("overlay: empty path")
	}
	for _, h := range path.Hops {
		if h.Node < 0 || h.Node >= len(s.nodes) {
			return nil, fmt.Errorf("overlay: path hop node %d out of range [0,%d)", h.Node, len(s.nodes))
		}
	}
	reply := s.drv.newReply()
	m := &message{
		kind: kindData,
		data: &dataMsg{
			hops:    path.Hops,
			idx:     0,
			payload: payload,
			trace:   &ExecutionTrace{Payload: payload},
			reply:   reply,
		},
	}
	s.send(-1, path.Hops[0].Node, m)
	// The data plane has no retry of its own: a stream that dies mid-path
	// (crashed hop, dropped forward) surfaces as a deadline miss and the
	// client re-routes — by then the control plane has steered around the
	// failure.
	if out, ok := reply.await(s.cfg.RouteTimeout); ok {
		return out.trace, out.err
	}
	return nil, fmt.Errorf("overlay: execute on %d-hop path: %w", len(path.Hops), ErrRPCTimeout)
}

// handleData is one proxy's data-plane step: verify + apply the hop's
// service, then forward to the next hop (or reply when the path ends).
func (n *node) handleData(m message) {
	d := m.data
	hop := d.hops[d.idx]
	if hop.Node != n.id {
		d.reply.deliver(answer{err: fmt.Errorf("overlay: hop %d addressed to %d but delivered to %d", d.idx, hop.Node, n.id)})
		return
	}
	if hop.Service != "" {
		if !n.sys.capsOf(n.id).Has(hop.Service) {
			d.reply.deliver(answer{err: fmt.Errorf("overlay: proxy %d asked to apply %q which it does not provide", n.id, hop.Service)})
			return
		}
		d.payload = fmt.Sprintf("%s(%s)", hop.Service, d.payload)
		d.trace.Applied = append(d.trace.Applied, fmt.Sprintf("%s@%d", hop.Service, n.id))
		d.trace.Payload = d.payload
	}
	if d.idx+1 == len(d.hops) {
		d.reply.deliver(answer{trace: d.trace})
		return
	}
	d.idx++
	next := d.hops[d.idx].Node
	if next == n.id {
		// Consecutive services on the same proxy: keep processing locally
		// without a network transmission.
		n.handleData(m)
		return
	}
	d.trace.Forwards++
	fwd := m // only a copy that is actually sent goes to the heap
	n.sys.send(n.id, next, &fwd)
}

// svcNamesOf extracts the service sequence of a trace (helper for tests).
func (t *ExecutionTrace) svcNamesOf() []svc.Service {
	out := make([]svc.Service, 0, len(t.Applied))
	for _, a := range t.Applied {
		for i := 0; i < len(a); i++ {
			if a[i] == '@' {
				out = append(out, svc.Service(a[:i]))
				break
			}
		}
	}
	return out
}

// Services returns the applied service names in order.
func (t *ExecutionTrace) Services() []svc.Service { return t.svcNamesOf() }
