package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"genlink/internal/entity"
)

// Fixed ports: a run refuses to start when one is taken, because a stray
// server from an earlier run would serve (and skew) this one.
const (
	routerPort    = 18760
	firstNodePort = 18761
	partitions    = 2
)

// node is one genlinkd process owned by the benchmark.
type node struct {
	name string
	addr string
	args []string
	dir  string // -wal-dir of a leader; empty for the router
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// cluster is partitions fsync-batch partition leaders behind one
// genlinkd -route router, all started from the binary under test.
type cluster struct {
	bin     string
	root    string
	logPath string
	leaders []*node
	router  *node
}

// portsFree fails when any benchmark port is already bound.
func portsFree() error {
	for p := routerPort; p < firstNodePort+partitions; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			return fmt.Errorf("port %d is taken (a server left from an earlier run?): %w", p, err)
		}
		l.Close()
	}
	return nil
}

// startCluster starts the leaders on fresh WAL directories under root,
// serving ruleFile, and the router over them, and waits until all
// answer /healthz. On error everything it started is stopped.
func startCluster(ctx context.Context, bin, ruleFile, root string) (*cluster, error) {
	if err := portsFree(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, root: root, logPath: filepath.Join(root, "genlinkd.log")}
	var spec []string
	for i := 0; i < partitions; i++ {
		addr := "127.0.0.1:" + strconv.Itoa(firstNodePort+i)
		dir := filepath.Join(root, fmt.Sprintf("leader%d", i))
		c.leaders = append(c.leaders, &node{
			name: fmt.Sprintf("leader%d", i), addr: addr, dir: dir,
			args: []string{"-rule", ruleFile, "-wal-dir", dir, "-fsync", "batch", "-addr", addr},
		})
		spec = append(spec, addr)
	}
	raddr := "127.0.0.1:" + strconv.Itoa(routerPort)
	c.router = &node{name: "router", addr: raddr,
		args: []string{"-route", strings.Join(spec, ";"), "-addr", raddr}}
	for _, n := range append(append([]*node(nil), c.leaders...), c.router) {
		if err := c.start(ctx, n); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// start launches n and waits until it answers /healthz.
func (c *cluster) start(ctx context.Context, n *node) error {
	logf, err := os.OpenFile(c.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	n.cmd = exec.Command(c.bin, n.args...)
	n.cmd.Stdout = logf
	n.cmd.Stderr = logf
	// A backstop for the one exit path no defer covers (the benchmark
	// itself being killed): the kernel kills the child with it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", n.name, err)
	}
	n.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills its nodes
		close(done)
	}(n.cmd, n.done)
	return waitHealthy(ctx, n, c.logPath)
}

// waitHealthy polls n's /healthz until it answers 200, the process
// exits, or 30 s pass.
func waitHealthy(ctx context.Context, n *node, logPath string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := client.Get("http://" + n.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; content unused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-n.done:
			return fmt.Errorf("%s exited during start-up; see %s", n.name, logPath)
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s; see %s", n.name, logPath)
		}
	}
}

// kill SIGKILLs n and waits until it has exited.
func (n *node) kill() {
	if n == nil || n.cmd == nil || n.cmd.Process == nil {
		return
	}
	select {
	case <-n.done:
		return
	default:
	}
	_ = n.cmd.Process.Kill() // fails only if the process already exited, which done covers
	<-n.done
}

// Close kills every node and waits for each to exit. It is safe to call
// more than once and on a partly started cluster.
func (c *cluster) Close() {
	if c == nil {
		return
	}
	c.router.kill()
	for _, n := range c.leaders {
		n.kill()
	}
}

// restartLeader SIGKILLs leader i and starts it again on its WAL
// directory; copyTo, when set, receives a copy of the directory as the
// kill left it. It returns the time from the restart to /healthz.
func (c *cluster) restartLeader(ctx context.Context, i int, copyTo string) (time.Duration, error) {
	n := c.leaders[i]
	n.kill()
	if copyTo != "" {
		if err := copyDir(n.dir, copyTo); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if err := c.start(ctx, n); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// rssPeakMB sums the peak resident set size (VmHWM) of every node.
func (c *cluster) rssPeakMB() (float64, error) {
	var total float64
	for _, n := range append(append([]*node(nil), c.leaders...), c.router) {
		mb, err := vmHWM(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	des, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// client is one benchmark connection: a keep-alive client limited to a
// single connection per host, so the load generator's connection count
// is exactly its number of clients.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out (when non-nil).
func (c *client) do(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return nil
}

// matchLink is one link of a /match answer.
type matchLink struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// postMatch sends POST /match?k= with the probe to addr.
func (c *client) postMatch(ctx context.Context, addr string, probe []byte, k int) ([]matchLink, error) {
	var ans struct {
		Links []matchLink `json:"links"`
	}
	if err := c.do(ctx, http.MethodPost, fmt.Sprintf("http://%s/match?k=%d", addr, k), probe, &ans); err != nil {
		return nil, err
	}
	return ans.Links, nil
}

// postEntities upserts a batch and checks the node counted all of it.
func (c *client) postEntities(ctx context.Context, addr string, batch []*entity.Entity) error {
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	return c.postEntitiesJSON(ctx, addr, body, distinctIDs(batch))
}

// postEntitiesJSON is postEntities with the body already encoded.
func (c *client) postEntitiesJSON(ctx context.Context, addr string, body []byte, want int) error {
	var ack struct {
		Added int `json:"added"`
	}
	if err := c.do(ctx, http.MethodPost, "http://"+addr+"/entities", body, &ack); err != nil {
		return err
	}
	if ack.Added != want {
		return fmt.Errorf("POST /entities on %s acknowledged %d of %d entities", addr, ack.Added, want)
	}
	return nil
}

// getEntity fetches one stored entity; nil, nil when it is unknown.
func (c *client) getEntity(ctx context.Context, addr, id string) (*entity.Entity, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/entities/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var e entity.Entity
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("GET /entities/%s: decode: %w", id, err)
		}
		return &e, nil
	case http.StatusNotFound:
		return nil, nil
	}
	return nil, fmt.Errorf("GET /entities/%s on %s: status %d", id, addr, resp.StatusCode)
}

// statsEntities reads the entity count from GET /stats.
func (c *client) statsEntities(ctx context.Context, addr string) (int, error) {
	var st struct {
		Entities int `json:"entities"`
	}
	if err := c.do(ctx, http.MethodGet, "http://"+addr+"/stats", nil, &st); err != nil {
		return 0, err
	}
	return st.Entities, nil
}

func distinctIDs(batch []*entity.Entity) int {
	seen := make(map[string]bool, len(batch))
	for _, e := range batch {
		seen[e.ID] = true
	}
	return len(seen)
}
