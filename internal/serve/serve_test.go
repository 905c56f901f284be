package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distenc/internal/core"
	"distenc/internal/framerpc"
	"distenc/internal/leakcheck"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// trainCheckpoint runs a small distributed completion with per-iteration
// checkpointing and returns the final checkpoint image path, the dataset,
// and the trained model. The final checkpoint's factors are bit-identical
// to the returned model's (the resume-reproducibility invariant), so serve
// predictions can be checked against Result.Model directly.
func trainCheckpoint(t *testing.T, seed uint64, iters int) (string, *synth.Dataset, *core.Result) {
	t.Helper()
	d := synth.LinearFactorDataset([]int{12, 10, 8}, 2, 600, seed)
	dir := t.TempDir()
	c := rdd.MustNewCluster(rdd.Config{Machines: 2})
	defer c.Close()
	res, err := core.CompleteDistributed(c, d.Tensor, d.Sims, core.DistOptions{Options: core.Options{
		Rank: 3, MaxIter: iters, Tol: 1e-300, Seed: seed + 1,
		CheckpointEvery: 1, CheckpointDir: dir,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return core.CheckpointPath(dir), d, res
}

// startServer runs srv.Serve on a goroutine and registers a draining
// cleanup.
func startServer(t *testing.T, srv *Server) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServePredictionsBitEqual is the acceptance property: for every
// observed cell of the training tensor, the served prediction is bit-equal
// to sptensor.Kruskal.At on the trained model — through the checkpoint
// round trip and the binary protocol. LoadModel's fourth argument, which
// sized the row cache PR 28 deleted, is inert: a model loaded with 4096
// answers with the same bits.
func TestServePredictionsBitEqual(t *testing.T) {
	ckpt, d, res := trainCheckpoint(t, 61, 4)
	reg := NewRegistry()
	m, err := LoadModel("ratings", ckpt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := LoadModel("ratings", ckpt, "", 4096)
	if err != nil {
		t.Fatal(err)
	}
	reg.Put(m)
	srv, err := NewServer(reg, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	startServer(t, srv)
	cl := dialTest(t, srv.Addr())

	tensor := d.Tensor
	order := tensor.Order()
	const batch = 64
	for start := 0; start < tensor.NNZ(); start += batch {
		end := min(start+batch, tensor.NNZ())
		flat := make([]int32, 0, (end-start)*order)
		for e := start; e < end; e++ {
			flat = append(flat, tensor.Index(e)...)
		}
		got, err := cl.Predict("ratings", order, flat)
		if err != nil {
			t.Fatal(err)
		}
		fromTwin, err := twin.PredictBatch(order, flat, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := 0, start; e < end; i, e = i+1, e+1 {
			want := res.Model.At(tensor.Index(e))
			if math.Float64bits(got[i]) != math.Float64bits(want) || math.Float64bits(fromTwin[i]) != math.Float64bits(want) {
				t.Fatalf("cell %v: served %v (bits %x), LoadModel(…, 4096) answers %v, want %v (bits %x)",
					tensor.Index(e), got[i], math.Float64bits(got[i]), fromTwin[i], want, math.Float64bits(want))
			}
		}
	}

	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Cells != int64(tensor.NNZ()) {
		t.Fatalf("stats count %d cells, want %d", snap[0].Cells, tensor.NNZ())
	}
}

// TestHotSwapNeverTears hammers batch predictions from several connections
// while the registry swaps between two model generations. Every response
// must match one generation wholly — a mix would prove a torn read. Run
// under -race in the serve CI job.
func TestHotSwapNeverTears(t *testing.T) {
	// Registered before startServer's cleanup, so it runs after the server
	// has drained: the swap storm must leave zero goroutines behind.
	t.Cleanup(func() { leakcheck.Check(t) })
	ckptA, d, resA := trainCheckpoint(t, 71, 3)
	ckptB, _, resB := trainCheckpoint(t, 71, 6) // same data, more iterations

	// One fixed probe batch: the first 32 observed cells.
	order := d.Tensor.Order()
	count := min(32, d.Tensor.NNZ())
	flat := make([]int32, 0, count*order)
	for e := 0; e < count; e++ {
		flat = append(flat, d.Tensor.Index(e)...)
	}
	wantA := make([]uint64, count)
	wantB := make([]uint64, count)
	distinct := false
	for e := 0; e < count; e++ {
		wantA[e] = math.Float64bits(resA.Model.At(d.Tensor.Index(e)))
		wantB[e] = math.Float64bits(resB.Model.At(d.Tensor.Index(e)))
		if wantA[e] != wantB[e] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("generations A and B predict identically; the test cannot detect tearing")
	}

	reg := NewRegistry()
	mA, err := LoadModel("m", ckptA, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	reg.Put(mA)
	srv, err := NewServer(reg, Config{Listen: "127.0.0.1:0", CacheRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	startServer(t, srv)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for !stop.Load() {
				got, err := cl.Predict("m", order, flat)
				if err != nil {
					errs <- err
					return
				}
				matchesA, matchesB := true, true
				for i, v := range got {
					bits := math.Float64bits(v)
					matchesA = matchesA && bits == wantA[i]
					matchesB = matchesB && bits == wantB[i]
				}
				if !matchesA && !matchesB {
					errs <- fmt.Errorf("torn response: matches neither generation wholly")
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(400 * time.Millisecond)
	for n := 0; time.Now().Before(deadline); n++ {
		ckpt := ckptA
		if n%2 == 0 {
			ckpt = ckptB
		}
		m, err := LoadModel("m", ckpt, "", 8)
		if err != nil {
			t.Fatal(err)
		}
		reg.Put(m)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cumulative stats survived every swap.
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Swaps == 0 || snap[0].Queries == 0 {
		t.Fatalf("stats lost across swaps: %+v", snap)
	}
}

func TestRegistrySwapInheritsStats(t *testing.T) {
	ckpt, _, _ := trainCheckpoint(t, 81, 2)
	reg := NewRegistry()
	m1, err := LoadModel("m", ckpt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.Put(m1)
	if _, err := m1.PredictBatch(3, []int32{1, 1, 1, 2, 2, 2}, nil); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel("m", ckpt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	old, existed := reg.Put(m2)
	if !existed || old != m1 {
		t.Fatal("swap did not return the retired generation")
	}
	st := m2.Stats()
	if st.Queries != 1 || st.Cells != 2 || st.Swaps != 1 {
		t.Fatalf("inherited stats = %+v, want queries=1 cells=2 swaps=1", st)
	}
	if _, ok := reg.Remove("m"); !ok {
		t.Fatal("remove failed")
	}
	if _, ok := reg.Get("m"); ok {
		t.Fatal("model still present after remove")
	}
}

func TestProtocolErrorsAndStats(t *testing.T) {
	ckpt, _, _ := trainCheckpoint(t, 91, 2)
	reg := NewRegistry()
	m, err := LoadModel("m", ckpt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.Put(m)
	srv, err := NewServer(reg, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	startServer(t, srv)
	cl := dialTest(t, srv.Addr())

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Predict("ghost", 3, []int32{1, 1, 1}); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := cl.Predict("m", 2, []int32{1, 1}); err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("wrong order: %v", err)
	}
	if _, err := cl.Predict("m", 3, []int32{1, 1, 500}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index: %v", err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].Model != "m" || snap[0].Rank != 3 {
		t.Fatalf("stats = %+v", snap)
	}
}

// loadedServer starts a server with one small model, "m", registered.
func loadedServer(t *testing.T) *Server {
	t.Helper()
	ckpt, _, _ := trainCheckpoint(t, 96, 2)
	reg := NewRegistry()
	m, err := LoadModel("m", ckpt, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.Put(m)
	srv, err := NewServer(reg, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	startServer(t, srv)
	return srv
}

// TestHelloRejectsStrangers proves the mis-dialed-port property both ways: a
// stranger's hello on the serve port — a worker client's, or a serve client's
// of another version — is answered with the server's own, so the peer can say
// what it reached, and then hung up on; and the serve client refuses a
// non-serve endpoint.
func TestHelloRejectsStrangers(t *testing.T) {
	srv := loadedServer(t)
	for _, tc := range []struct {
		hello []byte
		want  []string // what the peer's own check makes of the answer
	}{
		{[]byte{'D', 'T', 'W', 2}, []string{"bad hello"}},
		{[]byte{'D', 'T', 'S', 2}, []string{"version 1", "version 2"}},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(rdd.AppendFrame(nil, tc.hello)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		hello, err := rdd.ReadFrame(br, 16)
		if err != nil || !bytes.Equal(hello, serveHello) {
			t.Fatalf("hello %q was answered with %q, %v; want the server's own %q", tc.hello, hello, err, serveHello)
		}
		err = framerpc.ExpectHello(bytes.NewReader(rdd.AppendFrame(nil, hello)), tc.hello)
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("a peer greeting with %q makes of the answer: %v, want it to say %q", tc.hello, err, want)
			}
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("after refusing hello %q the server did not hang up: %v", tc.hello, err)
		}
	}

	// And Dial against a non-serve listener fails at the hello.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("HTTP/1.0 400 nope\r\n\r\n"))
		c.Close()
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial accepted a non-serve endpoint")
	}
	wg.Wait()
}

// TestDialGivesUpOnASilentListener: an endpoint that accepts and never speaks
// must cost Dial its fixed bound, not forever.
func TestDialGivesUpOnASilentListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(held)
			return
		}
		held <- c // hold open, never speak: the dialer waits on the hello
	}()
	defer func() {
		ln.Close()
		if c := <-held; c != nil {
			c.Close()
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := Dial(ln.Addr().String())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial succeeded against a listener that never sent a hello")
		}
	case <-time.After(framerpc.DialTimeout + 5*time.Second):
		t.Fatalf("Dial still blocked %v after its %v bound", 5*time.Second, framerpc.DialTimeout)
	}
}

// TestShutdownCutsOffStalledReader is the predict plane's half of the
// stalled-reader drain (see its twin in internal/transport): a client
// pipelines batches and never reads a reply, the handler ends up blocked in a
// write, and Shutdown must cut it off instead of waiting for a reader that is
// not coming — a SIGTERMed distenc-serve has nobody to SIGKILL it.
func TestShutdownCutsOffStalledReader(t *testing.T) {
	srv := loadedServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const cells = 1 << 15 // 256 KB of predictions a batch
	batch := rdd.AppendFrame(nil, appendPredictBody(framerpc.AppendHeader(nil, 1, opPredict), "m", 3, make([]int32, 3*cells)))
	var written atomic.Int64
	writerDone := make(chan struct{})
	go func() { // ends when the server, or the deferred Close, closes conn
		defer close(writerDone)
		if _, err := conn.Write(rdd.AppendFrame(nil, serveHello)); err != nil {
			return
		}
		for {
			n, err := conn.Write(batch)
			written.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		conn.Close()
		<-writerDone
	}()
	// Once the replies nobody reads fill the socket buffers the handler blocks
	// writing, stops reading, and the writer here stops making progress.
	for last, still := int64(-1), 0; still < 3; {
		time.Sleep(100 * time.Millisecond)
		if n := written.Load(); n > 0 && n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown is still waiting for a connection whose peer stopped reading")
	}
}

func TestAdminPlane(t *testing.T) {
	ckpt, d, res := trainCheckpoint(t, 101, 3)
	reg := NewRegistry()
	srv, err := NewServer(reg, Config{Listen: "127.0.0.1:0", Admin: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	startServer(t, srv)
	base := "http://" + srv.AdminAddr()
	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// Load a model through the admin plane.
	code, body := post("/models/ratings", fmt.Sprintf(`{"checkpoint": %q}`, ckpt))
	if code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
	if m, ok := reg.Get("ratings"); !ok || m.Rank() != 3 {
		t.Fatal("model not registered")
	}

	// A corrupt checkpoint is rejected with the loader's descriptive error.
	bad := filepath.Join(t.TempDir(), "solver.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint image, definitely"), 0o600); err != nil {
		t.Fatal(err)
	}
	code, body = post("/models/broken", fmt.Sprintf(`{"checkpoint": %q}`, bad))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "bad checkpoint magic") {
		t.Fatalf("corrupt load: %d %s", code, body)
	}

	// Text batch predict through the shared cell reader, checked bit-equal.
	e0 := d.Tensor.Index(0)
	cells := fmt.Sprintf("# probe\n%d %d %d\n", e0[0], e0[1], e0[2])
	code, body = post("/models/ratings/predict", cells)
	if code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	var pred struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatal(err)
	}
	if len(pred.Values) != 1 || math.Float64bits(pred.Values[0]) != math.Float64bits(res.Model.At(e0)) {
		t.Fatalf("admin predict = %v, want %v", pred.Values, res.Model.At(e0))
	}

	// Inventory and stats.
	if code, body := get("/models"); code != http.StatusOK || !strings.Contains(string(body), `"ratings"`) {
		t.Fatalf("models: %d %s", code, body)
	}
	if code, body := get("/stats?format=text"); code != http.StatusOK || !strings.Contains(string(body), "ratings") {
		t.Fatalf("stats text: %d %s", code, body)
	}

	// Refresh is a 409 when the loop is disabled.
	if code, body := post("/refresh", ""); code != http.StatusConflict {
		t.Fatalf("refresh without loop: %d %s", code, body)
	}

	// Drop.
	req, err := http.NewRequest(http.MethodDelete, base+"/models/ratings", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if _, ok := reg.Get("ratings"); ok {
		t.Fatal("model still present after DELETE")
	}
}

// readCOOFile parses a COO file the way the daemon's injected reader does;
// tests reimplement the tiny header+entries format locally to keep the
// internal package free of a façade dependency.
func readCOOFile(path string) (*sptensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tensor *sptensor.Tensor
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if tensor == nil {
			if fields[0] != "dims" {
				return nil, fmt.Errorf("want dims header, got %q", sc.Text())
			}
			dims := make([]int, len(fields)-1)
			for i, fd := range fields[1:] {
				fmt.Sscan(fd, &dims[i])
			}
			tensor = sptensor.New(dims...)
			continue
		}
		idx := make([]int32, tensor.Order())
		for i := range idx {
			var v int
			fmt.Sscan(fields[i], &v)
			idx[i] = int32(v)
		}
		var val float64
		fmt.Sscan(fields[tensor.Order()], &val)
		tensor.Append(idx, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tensor, nil
}

func writeCOOFile(t *testing.T, path string, tensor *sptensor.Tensor) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("dims")
	for _, d := range tensor.Dims {
		fmt.Fprintf(&sb, " %d", d)
	}
	sb.WriteByte('\n')
	for e := 0; e < tensor.NNZ(); e++ {
		for _, v := range tensor.Index(e) {
			fmt.Fprintf(&sb, "%d ", v)
		}
		fmt.Fprintf(&sb, "%.17g\n", tensor.Val[e])
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshFoldsAppendedObservations drives one admin-triggered refresh:
// observations appended to the model's COO file fold into the served
// factors (the iteration counter advances, the generation swaps
// atomically), and a refresh failure would have left the old generation
// serving.
func TestRefreshFoldsAppendedObservations(t *testing.T) {
	ckpt, d, _ := trainCheckpoint(t, 111, 3)

	dataPath := filepath.Join(t.TempDir(), "obs.coo")
	writeCOOFile(t, dataPath, d.Tensor)

	reg := NewRegistry()
	m, err := LoadModel("m", ckpt, dataPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.Put(m)
	baseIter := m.Iter

	srv, err := NewServer(reg, Config{
		Listen: "127.0.0.1:0", Admin: "127.0.0.1:0",
		Refresh: RefreshConfig{
			Every:      time.Hour, // loop armed but effectively manual
			Iters:      2,
			Machines:   2,
			ScratchDir: t.TempDir(),
			ReadTensor: readCOOFile,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	startServer(t, srv)

	// Append fresh observations drawn from the generating model.
	appended := sptensor.New(d.Tensor.Dims...)
	appended.Append([]int32{11, 9, 7}, d.Truth.At([]int32{11, 9, 7}))
	appended.Append([]int32{0, 9, 7}, d.Truth.At([]int32{0, 9, 7}))
	f, err := os.OpenFile(dataPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < appended.NNZ(); e++ {
		idx := appended.Index(e)
		fmt.Fprintf(f, "%d %d %d %.17g\n", idx[0], idx[1], idx[2], appended.Val[e])
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)
	resp, err := client.Post("http://"+srv.AdminAddr()+"/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var refreshResp struct {
		Refreshed []string `json:"refreshed"`
		Errors    []string `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&refreshResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(refreshResp.Errors) > 0 {
		t.Fatalf("refresh errors: %v", refreshResp.Errors)
	}
	if len(refreshResp.Refreshed) != 1 || refreshResp.Refreshed[0] != "m" {
		t.Fatalf("refreshed = %v, want [m]", refreshResp.Refreshed)
	}

	next, ok := reg.Get("m")
	if !ok {
		t.Fatal("model vanished after refresh")
	}
	if next == m {
		t.Fatal("refresh did not swap a new generation in")
	}
	if next.Iter != baseIter+2 {
		t.Fatalf("refreshed iter = %d, want %d", next.Iter, baseIter+2)
	}
	st := next.Stats()
	if st.Refreshes != 1 || st.Swaps != 1 {
		t.Fatalf("stats = %+v, want refreshes=1 swaps=1", st)
	}

	// The refreshed generation serves its own factors bit-equal.
	cl := dialTest(t, srv.Addr())
	idx := []int32{11, 9, 7}
	got, err := cl.Predict("m", 3, idx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got[0]) != math.Float64bits(next.Kruskal().At(idx)) {
		t.Fatalf("served %v, want %v", got[0], next.Kruskal().At(idx))
	}
}

// TestLoadModelAllocatesTheFactorsOnly pins the model-load path's memory: a
// checkpoint is streamed from the open file straight into the factor
// matrices, and the aux and dual groups a predictor never reads are not
// decoded at all. Loading used to hold the whole image, a decode buffer per
// matrix and all three groups at once — some nine times the factor bytes.
func TestLoadModelAllocatesTheFactorsOnly(t *testing.T) {
	dims, rank := []uint32{8192, 4096, 2048}, uint32(16)
	le := binary.LittleEndian
	img := le.AppendUint32(nil, 0x4454434b) // "DTCK"
	img = le.AppendUint32(img, 1)
	img = le.AppendUint64(img, 5)                     // iter
	img = le.AppendUint64(img, math.Float64bits(1.5)) // eta
	img = le.AppendUint32(img, uint32(len(dims)))
	img = le.AppendUint32(img, rank)
	var cells int
	for _, d := range dims {
		img = le.AppendUint32(img, d)
		cells += int(d * rank)
	}
	for g := 0; g < 3; g++ { // factors, aux, duals: cell i of group g holds g + i/2^20
		for i := 0; i < cells; i++ {
			img = le.AppendUint64(img, math.Float64bits(float64(g)+float64(i)/(1<<20)))
		}
	}
	path := filepath.Join(t.TempDir(), "solver.ckpt")
	if err := os.WriteFile(path, img, 0o600); err != nil {
		t.Fatal(err)
	}
	img = nil

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := LoadModel("big", path, "", 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	factorBytes := uint64(8 * cells)
	if got := after.TotalAlloc - before.TotalAlloc; got > factorBytes*3/2 {
		t.Errorf("LoadModel allocated %d bytes for %d bytes of factors (%.2f×), want at most 1.5×", got, factorBytes, float64(got)/float64(factorBytes))
	}
	if m.Iter != 5 || m.Eta != 1.5 || m.Rank() != int(rank) {
		t.Fatalf("iter=%d eta=%v rank=%d, want 5, 1.5, %d", m.Iter, m.Eta, m.Rank(), rank)
	}
	i := 0
	for n, f := range m.Kruskal().Factors {
		for _, v := range f.Data() {
			if want := float64(i) / (1 << 20); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("mode %d: factor cell %d = %v, want %v", n, i, v, want)
			}
			i++
		}
	}
}
