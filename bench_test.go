package netmem

// One benchmark per table and figure in the paper's evaluation. Each
// iteration runs the corresponding experiment on a fresh simulated cluster
// and reports the *simulated* quantities as custom metrics (the paper's
// numbers are wall-clock on 1994 hardware; ours are virtual time on the
// calibrated model — the ns/op column only measures how fast the simulator
// itself runs).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// and compare the custom metric columns against the published values
// recorded in EXPERIMENTS.md.

import (
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/hybrid"
	"netmem/internal/model"
	"netmem/internal/nameserver"
	"netmem/internal/rmem"
	"netmem/internal/rpc"
	"netmem/internal/svm"
	"netmem/internal/workload"
)

// BenchmarkTable1a regenerates the NFS activity mix summary: it samples a
// synthetic trace from the published distribution and reports the largest
// deviation from the published percentages (should be ≈0).
func BenchmarkTable1a(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		g := workload.NewGenerator(int64(i)+1, 1000, 100)
		counts := workload.CountByActivity(g.Trace(100000))
		mix := workload.Mix()
		worst = 0
		for a := 0; a < workload.NumActivities; a++ {
			d := float64(counts[a])/100000 - mix[workload.Activity(a)]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst*100, "worst-mix-deviation-pct")
}

// BenchmarkTable1b regenerates the control-vs-data traffic breakdown and
// reports the headline ratios.
func BenchmarkTable1b(b *testing.B) {
	var total workload.TrafficRow
	for i := 0; i < b.N; i++ {
		_, total = workload.Table1b(&workload.DefaultTraffic, workload.Table1aCounts)
	}
	b.ReportMetric(total.Ratio, "control/data(paper:0.14)")
	b.ReportMetric(total.ControlMB, "control-MB(paper:766)")
	b.ReportMetric(total.DataMB, "data-MB(paper:5573)")
}

// BenchmarkTable2 regenerates the remote-memory operation summary.
func BenchmarkTable2(b *testing.B) {
	var t2 rmem.Table2
	var err error
	for i := 0; i < b.N; i++ {
		t2, err = rmem.MeasureTable2(&model.Default)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us(t2.ReadLatency), "read-us(paper:45)")
	b.ReportMetric(us(t2.WriteLatency), "write-us(paper:30)")
	b.ReportMetric(us(t2.CASLatency), "cas-us(paper:38)")
	b.ReportMetric(t2.ThroughputBits/1e6, "block-Mbps(paper:35.4)")
	b.ReportMetric(us(t2.NotifyOverhead), "notify-us(paper:260)")
}

// BenchmarkTable3 regenerates the name-server performance summary.
func BenchmarkTable3(b *testing.B) {
	var t3 nameserver.Table3
	var err error
	for i := 0; i < b.N; i++ {
		t3, err = nameserver.MeasureTable3(&model.Default)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us(t3.Export), "export-us(paper:665)")
	b.ReportMetric(us(t3.ImportCached), "import-cached-us(paper:196)")
	b.ReportMetric(us(t3.ImportUncached), "import-uncached-us(paper:264)")
	b.ReportMetric(us(t3.Revoke), "revoke-us(paper:307)")
	b.ReportMetric(us(t3.LookupNotify), "lookup-notify-us(paper:524)")
}

// BenchmarkFigure2 regenerates the client-latency comparison and reports
// the bracketing bars plus the mean HY/DX advantage.
func BenchmarkFigure2(b *testing.B) {
	var res [][2]dfs.OpResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dfs.RunFigure2And3()
		if err != nil {
			b.Fatal(err)
		}
	}
	var ratioSum float64
	for _, pair := range res {
		ratioSum += float64(pair[0].Latency) / float64(pair[1].Latency)
	}
	b.ReportMetric(us(res[0][0].Latency), "GetAttr-HY-us")
	b.ReportMetric(us(res[0][1].Latency), "GetAttr-DX-us")
	b.ReportMetric(us(res[3][0].Latency), "Read8K-HY-us")
	b.ReportMetric(us(res[3][1].Latency), "Read8K-DX-us")
	b.ReportMetric(ratioSum/float64(len(res)), "mean-HY/DX-latency")
}

// BenchmarkFigure3 regenerates the server-activity breakdown and reports
// per-class server CPU for both structures.
func BenchmarkFigure3(b *testing.B) {
	var res [][2]dfs.OpResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dfs.RunFigure2And3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us(res[0][0].ServerTotal()), "GetAttr-HY-serverus")
	b.ReportMetric(us(res[0][1].ServerTotal()), "GetAttr-DX-serverus")
	b.ReportMetric(us(res[3][0].ServerTotal()), "Read8K-HY-serverus")
	b.ReportMetric(us(res[3][1].ServerTotal()), "Read8K-DX-serverus")
	b.ReportMetric(us(res[0][0].ServerControl), "control-xfer-us(260)")
}

// BenchmarkServerLoadHeadline reproduces the abstract's ≈50% server-load
// reduction on the Table 1a mix.
func BenchmarkServerLoadHeadline(b *testing.B) {
	weights := map[string]float64{
		"GetAttribute": 0.31, "LookupName": 0.31, "ReadLink": 0.06,
		"Readfile(8K)": 0.16 / 3, "Readfile(4K)": 0.16 / 3, "Readfile(1K)": 0.16 / 3,
		"ReadDirectory(4K)": 0.03 / 3, "ReadDirectory(1K)": 0.03 / 3, "ReadDirectory(512)": 0.03 / 3,
		"WriteFile(8K)": 0.004 / 3, "Writefile(4K)": 0.004 / 3, "Writefile(1K)": 0.004 / 3,
	}
	var reduction float64
	for i := 0; i < b.N; i++ {
		res, err := dfs.RunFigure2And3()
		if err != nil {
			b.Fatal(err)
		}
		var hy, dx float64
		for _, pair := range res {
			w := weights[pair[0].Label]
			hy += w * float64(pair[0].ServerTotal())
			dx += w * float64(pair[1].ServerTotal())
		}
		reduction = (1 - dx/hy) * 100
	}
	b.ReportMetric(reduction, "server-load-reduction-pct(paper:~50)")
}

// BenchmarkScalability runs the multi-client extension: 4 closed-loop
// clients replaying the mix under each structure.
func BenchmarkScalability(b *testing.B) {
	var hy, dx workload.ScalePoint
	var err error
	for i := 0; i < b.N; i++ {
		hy, err = workload.RunScale(workload.ScaleConfig{
			Clients: 4, Mode: dfs.HY, Window: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		dx, err = workload.RunScale(workload.ScaleConfig{
			Clients: 4, Mode: dfs.DX, Window: time.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hy.OpsPerSec, "HY-ops/s")
	b.ReportMetric(dx.OpsPerSec, "DX-ops/s")
	b.ReportMetric(hy.ServerUtil*100, "HY-server-util-pct")
	b.ReportMetric(dx.ServerUtil*100, "DX-server-util-pct")
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// remote writes executed per wall-clock second (not a paper metric; a
// regression guard for the engine).
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys := New(2)
	var seg *Segment
	var imp *Import
	ready := make(chan struct{})
	sys.Spawn("setup", func(p *Proc) {
		seg = sys.Mem[1].Export(p, 4096)
		seg.SetDefaultRights(RightsAll)
		imp = sys.Mem[0].Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		close(ready)
	})
	if err := sys.RunFor(time.Millisecond); err != nil {
		b.Fatal(err)
	}
	<-ready
	b.ResetTimer()
	data := make([]byte, 32)
	done := 0
	sys.Spawn("writer", func(p *Proc) {
		for done < b.N {
			if err := imp.Write(p, 0, data, false); err != nil {
				b.Error(err)
				return
			}
			done++
			p.Sleep(50 * time.Microsecond)
		}
	})
	if err := sys.RunFor(time.Duration(b.N+1) * 100 * time.Microsecond); err != nil {
		b.Fatal(err)
	}
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// BenchmarkMixedChaosCampaign runs the full mixed chaos campaign (loss,
// corruption, duplication, reordering, and a primary crash with failover)
// and reports simulator throughput as events/sec — the headline wall-clock
// metric for the scheduler and cell-pipeline fast path. cmd/simbench wraps
// this same workload for the committed BENCH_PR4.json baseline.
func BenchmarkMixedChaosCampaign(b *testing.B) {
	camp, _ := faults.Named("mixed")
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := dfs.RunChaos(dfs.ChaosConfig{Campaign: camp, Seed: 1, Mode: dfs.DX})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != len(res.Ops) {
			b.Fatalf("goodput %d/%d", res.Completed, len(res.Ops))
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScaleSix runs the heaviest fault-free workload — six closed-loop
// clients replaying the Table 1a mix under DX — and reports events/sec.
func BenchmarkScaleSix(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		pt, err := workload.RunScale(workload.ScaleConfig{
			Clients: 6, Mode: dfs.DX, Window: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		events += pt.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkNullCallComparison pits the three transports against each
// other on the §2 question: what does a do-nothing round trip cost?
// Conventional RPC pays marshaling and all six control-transfer steps,
// Hybrid-1 pays one notification, and a pure remote write pays nothing
// but data transfer (it is one-way — that is the point).
func BenchmarkNullCallComparison(b *testing.B) {
	var rpcLat, hybridLat, writeLat time.Duration
	for i := 0; i < b.N; i++ {
		rpcLat = measureNullRPC(b)
		hybridLat = measureNullHybrid(b)
		t2, err := rmem.MeasureTable2(&model.Default)
		if err != nil {
			b.Fatal(err)
		}
		writeLat = t2.WriteLatency
	}
	b.ReportMetric(us(rpcLat), "rpc-null-us")
	b.ReportMetric(us(hybridLat), "hybrid-null-us")
	b.ReportMetric(us(writeLat), "remote-write-us")
}

// BenchmarkNameLookupCrossover reports the collision depth at which
// control transfer beats probing (§4.2: "seven or more collisions").
func BenchmarkNameLookupCrossover(b *testing.B) {
	var k int
	var err error
	for i := 0; i < b.N; i++ {
		k, err = nameserver.ProbeTransferCrossover(&model.Default, 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k), "crossover-collisions(paper:~7)")
}

// BenchmarkFalseSharing quantifies §6's SVM contrast: alternating writes
// by two nodes to different variables on one shared page, against the
// same updates done with one-word remote writes.
func BenchmarkFalseSharing(b *testing.B) {
	var svmPer, rmemPer time.Duration
	for i := 0; i < b.N; i++ {
		svmPer = measureSVMPingPong(b)
		rmemPer = measureRmemPingPong(b)
	}
	b.ReportMetric(us(svmPer), "svm-us/update")
	b.ReportMetric(us(rmemPer), "rmem-us/update")
	b.ReportMetric(float64(svmPer)/float64(rmemPer), "svm/rmem-ratio")
}

func measureNullRPC(b *testing.B) time.Duration {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 2)
	client := rpc.NewEndpoint(cl.Nodes[0])
	server := rpc.NewEndpoint(cl.Nodes[1])
	server.Serve().Register(1, 1, func(p *des.Proc, src int, args []byte) ([]byte, error) {
		return nil, nil
	})
	var lat time.Duration
	env.Spawn("client", func(p *des.Proc) {
		start := p.Now()
		if _, err := client.Call(p, 1, 1, 1, nil); err != nil {
			b.Error(err)
		}
		lat = time.Duration(p.Now().Sub(start))
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		b.Fatal(err)
	}
	return lat
}

func measureNullHybrid(b *testing.B) time.Duration {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 2)
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	var lat time.Duration
	env.Spawn("run", func(p *des.Proc) {
		srv := hybrid.NewServer(p, ms, 2, 256, func(hp *des.Proc, src int, req []byte) []byte {
			return nil
		})
		id, gen, size := srv.ReqSeg()
		cli := hybrid.NewClient(p, mc, 0, id, gen, size, 256, 256)
		cid, cgen, csize := cli.RepSeg()
		srv.AttachClient(p, 1, cid, cgen, csize)
		start := p.Now()
		if _, err := cli.Call(p, nil, time.Second); err != nil {
			b.Error(err)
		}
		lat = time.Duration(p.Now().Sub(start))
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		b.Fatal(err)
	}
	return lat
}

func measureSVMPingPong(b *testing.B) time.Duration {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 3)
	agents := []*svm.Agent{
		svm.New(cl.Nodes[0], 0, 1), svm.New(cl.Nodes[1], 0, 1), svm.New(cl.Nodes[2], 0, 1),
	}
	var per time.Duration
	env.Spawn("run", func(p *des.Proc) {
		const rounds = 10
		start := p.Now()
		for i := 0; i < rounds; i++ {
			if err := agents[1].Write(p, 0, []byte{byte(i)}); err != nil {
				b.Error(err)
				return
			}
			if err := agents[2].Write(p, 512, []byte{byte(i)}); err != nil {
				b.Error(err)
				return
			}
		}
		per = time.Duration(p.Now().Sub(start)) / (2 * 10)
	})
	if err := env.RunUntil(des.Time(time.Minute)); err != nil {
		b.Fatal(err)
	}
	return per
}

func measureRmemPingPong(b *testing.B) time.Duration {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 3)
	home := rmem.NewManager(cl.Nodes[0])
	w1 := rmem.NewManager(cl.Nodes[1])
	w2 := rmem.NewManager(cl.Nodes[2])
	var per time.Duration
	env.Spawn("run", func(p *des.Proc) {
		seg := home.Export(p, 4096)
		seg.SetDefaultRights(rmem.RightsAll)
		i1 := w1.Import(p, 0, seg.ID(), seg.Gen(), seg.Size())
		i2 := w2.Import(p, 0, seg.ID(), seg.Gen(), seg.Size())
		const rounds = 10
		start := p.Now()
		for i := 0; i < rounds; i++ {
			if err := i1.Write(p, 0, []byte{byte(i)}, false); err != nil {
				b.Error(err)
				return
			}
			if err := i2.Write(p, 512, []byte{byte(i)}, false); err != nil {
				b.Error(err)
				return
			}
		}
		// Writes are one-way; wait until all have landed.
		for seg.RemoteWrites < 2*rounds {
			p.Sleep(10 * time.Microsecond)
		}
		per = time.Duration(p.Now().Sub(start)) / (2 * 10)
	})
	if err := env.RunUntil(des.Time(time.Minute)); err != nil {
		b.Fatal(err)
	}
	return per
}
