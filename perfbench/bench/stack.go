package bench

import (
	"time"

	"sonet"
)

// The relay workloads drive a deployed fleet through these interfaces,
// which the public sonet API satisfies (PublicStack). The traced runner
// substitutes an implementation that also reaches per-layer counters,
// so both runs share every line of workload code.

// Daemon is one deployed overlay node.
type Daemon interface {
	UDPAddr() string
	TCPAddr() string
	AddPeer(id sonet.NodeID, addrs ...string) error
	Stats() sonet.NodeStats
	SchedStats() sonet.SchedStats
	Close()
}

// Client is a client session on a daemon.
type Client interface {
	OpenFlow(spec sonet.FlowSpec) (Flow, error)
	OnError(fn func(error))
	Close() error
}

// Flow is an open flow.
type Flow interface {
	Send(payload []byte) error
}

// Stack starts daemons and dials clients.
type Stack interface {
	StartDaemon(cfg sonet.DaemonConfig) (Daemon, error)
	DialDaemon(addr string, port sonet.Port, deliver func(sonet.Delivery)) (Client, error)
}

// PublicStack is the deployed stack through the public sonet API.
type PublicStack struct{}

// StartDaemon calls sonet.StartDaemon.
func (PublicStack) StartDaemon(cfg sonet.DaemonConfig) (Daemon, error) {
	d, err := sonet.StartDaemon(cfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// DialDaemon calls sonet.DialDaemon.
func (PublicStack) DialDaemon(addr string, port sonet.Port, deliver func(sonet.Delivery)) (Client, error) {
	c, err := sonet.DialDaemon(addr, port, deliver)
	if err != nil {
		return nil, err
	}
	return publicClient{c}, nil
}

type publicClient struct{ *sonet.RemoteClient }

func (c publicClient) OpenFlow(spec sonet.FlowSpec) (Flow, error) {
	f, err := c.RemoteClient.OpenFlow(spec)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// The emulated workload drives a virtual-time world through these
// interfaces; sonet.Network satisfies them through PublicWorld.

// World is an emulated overlay in virtual time.
type World interface {
	Connect(at sonet.NodeID, port sonet.Port) (SimClient, error)
	RunAt(d time.Duration, fn func())
	Run(d time.Duration)
	Now() time.Duration
	CutLink(a, b sonet.NodeID) error
	RestoreLink(a, b sonet.NodeID) error
	LeaveNode(id sonet.NodeID) error
	RejoinNode(id, contact sonet.NodeID) error
	PathBetween(a, b sonet.NodeID) []sonet.NodeID
	Close()
}

// SimClient is an application endpoint in an emulated world.
type SimClient interface {
	OnDeliver(fn func(sonet.Delivery))
	Join(g sonet.GroupID)
	OpenFlow(spec sonet.FlowSpec) (Flow, error)
}

// WorldSpec is what an emulated world is built from. Every world runs
// membership and paces its intrusion-tolerant links at SimITRate with
// SimITBuffer packets per source.
type WorldSpec struct {
	Seed  uint64
	Links []sonet.Link
}

// WorldMaker builds and settles a world.
type WorldMaker func(WorldSpec) (World, error)

// PublicWorld builds the world with sonet.New.
func PublicWorld(spec WorldSpec) (World, error) {
	n, err := sonet.New(spec.Seed, spec.Links, sonet.WithMembership(), sonet.WithITCapacity(SimITRate, SimITBuffer))
	if err != nil {
		return nil, err
	}
	return publicWorld{n}, nil
}

type publicWorld struct{ *sonet.Network }

func (w publicWorld) Connect(at sonet.NodeID, port sonet.Port) (SimClient, error) {
	c, err := w.Network.Connect(at, port)
	if err != nil {
		return nil, err
	}
	return publicSimClient{c}, nil
}

type publicSimClient struct{ *sonet.Client }

func (c publicSimClient) OpenFlow(spec sonet.FlowSpec) (Flow, error) {
	f, err := c.Client.OpenFlow(spec)
	if err != nil {
		return nil, err
	}
	return f, nil
}
