package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// runMGTCP is a 2-rank wall-clock solve over loopback TCP: two single-rank
// worlds in this process, the topology of two OS processes, on the
// compiled arm (the CLI and service default).  The reference history is
// the same problem on the in-process virtual-clock transport.
func runMGTCP(cfg runConfig) (*report, error) {
	const n = 2
	p := problem{extent: 64, levels: 3, rtol: 1e-6, maxCycles: 30,
		mode: petsc.ScatterDatatype, scale: forcingScale(cfg.seed)}
	pool0 := datatype.PoolOutstandingBytes()
	ref, virt, err := referenceSolve(core.NewUniformWorld(n, mpi.Compiled()), p)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	var op atomic.Int64
	world := uint64(0x7e5700)
	ss, err := solveSetups(setupSamples, func(keep bool) (*session, error) {
		s := newSession(p, cfg, ref, n, keep, &op)
		world++
		decos, tcps, err := tcpMesh(n, world, cfg.spans, &op)
		if err != nil {
			return nil, err
		}
		s.decos = decos
		worlds := make([]*mpi.World, n)
		err = runRanks(n, func(r int) error {
			w, err := mpi.NewWorldTransport(decos[r].Transport(), simnet.Uniform(n, simnet.IBDDR()), mpi.Compiled())
			if err != nil {
				decos[r].Close()
				return err
			}
			worlds[r] = w
			return w.Run(s.body)
		})
		var mats []mpi.CommMatrix
		for r, w := range worlds {
			if w != nil {
				mats = append(mats, w.CommMatrix())
				w.Close()
			}
			s.tcp = addTCP(s.tcp, tcps[r].Stats())
		}
		s.selfFrac = selfBytesFrac(mats...)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	rep := solveReport(ss, virt)
	s := ss[len(ss)-1]
	// On clean loopback nothing is lost, so any retransmission or CRC
	// reject is a failed operation.
	rep.failed += int(s.tcp.Retransmits + s.tcp.CRCRejects)
	rep.setLayer("datatype.pool_outstanding_delta_bytes", float64(datatype.PoolOutstandingBytes()-pool0), "B")
	return rep, nil
}

// tcpMesh binds n loopback listeners and builds the n TCP endpoints of one
// world, each wrapped in a counting decorator.  The endpoints connect when
// a world or mux starts them.
func tcpMesh(n int, worldID uint64, spans *spanLog, op *atomic.Int64) ([]*counted, []*transport.TCP, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	decos := make([]*counted, n)
	tcps := make([]*transport.TCP, n)
	for r := range tcps {
		t, err := transport.NewTCP(transport.TCPConfig{Rank: r, Size: n, WorldID: worldID,
			Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
		if err != nil {
			for _, t := range tcps[:r] {
				t.Close()
			}
			for _, l := range lns[r:] {
				l.Close()
			}
			return nil, nil, err
		}
		tcps[r] = t
		decos[r] = newCounted(t, spans, op)
	}
	return decos, tcps, nil
}
