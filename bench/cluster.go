package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"time"

	"livedev/internal/ifsvr"
)

// child is one spawned server or follower process.
type child struct {
	role  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // stdout lines; closed when the child's stdout ends
	hello hello
}

// childStartTimeout bounds how long a child may take to announce itself.
const childStartTimeout = 30 * time.Second

// spawn re-execs the benchmark binary in a child role and reads the
// addresses it announces.
func spawn(role string, spec childSpec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+role, specEnv+"="+string(specJSON))
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{role: role, cmd: cmd, stdin: stdin, lines: make(chan string, 1)}
	go func() {
		defer close(c.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
	}()
	line, err := c.readLine(childStartTimeout)
	if err == nil {
		err = json.Unmarshal([]byte(line), &c.hello)
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("bench: %s child did not announce itself: %w", role, err)
	}
	return c, nil
}

func (c *child) readLine(patience time.Duration) (string, error) {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return "", fmt.Errorf("%s child exited", c.role)
		}
		return line, nil
	case <-time.After(patience):
		return "", fmt.Errorf("%s child silent for %s", c.role, patience)
	}
}

// send writes one command line without waiting for its ack.
func (c *child) send(cmd string) error {
	_, err := io.WriteString(c.stdin, cmd+"\n")
	return err
}

// recvAck reads the next ack line.
func (c *child) recvAck() (ack, error) {
	var a ack
	line, err := c.readLine(10 * time.Second)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal([]byte(line), &a); err != nil {
		return a, fmt.Errorf("bench: bad ack %q: %w", line, err)
	}
	if !a.OK {
		return a, fmt.Errorf("bench: %s child refused: %s", c.role, a.Err)
	}
	return a, nil
}

// do sends one command and waits for its ack.
func (c *child) do(cmd string) (ack, error) {
	if err := c.send(cmd); err != nil {
		return ack{}, err
	}
	return c.recvAck()
}

// stop asks the child to quit, falls back to closing stdin and then to
// SIGKILL, and waits until the process has ended.
func (c *child) stop() {
	_ = c.send("quit")
	_ = c.stdin.Close()
	done := make(chan struct{})
	go func() {
		for range c.lines { // drain so the stdout reader can finish
		}
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

// cluster is the system under test: one server child and, for the edit
// path, one follower child replicating it.
type cluster struct {
	server   *child
	follower *child
	workRoot string
}

// startCluster spawns the server (and optionally a follower) under a fresh
// work root inside the current directory, so the benchmark reads and
// writes nothing outside its checkout.
func startCluster(in *inputs, withFollower bool) (*cluster, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cwd, ".benchwork-")
	if err != nil {
		return nil, err
	}
	cl := &cluster{workRoot: root}
	cl.server, err = spawn(roleServer, childSpec{Methods: in.methods, Procs: procsPerSide(), CPUs: benchCPUs, WorkRoot: root})
	if err != nil {
		cl.stop()
		return nil, err
	}
	if withFollower {
		if !sameShard(cl.server.hello) {
			fmt.Fprintln(logOut, "bench: the interface documents are spread over several replication shards; a stall can make the follower's watchers skip a version (inputs.go, className)")
		}
		cl.follower, err = spawn(roleFollower, childSpec{Procs: procsPerSide(), CPUs: benchCPUs, WorkRoot: root, Leader: cl.server.hello.Iface})
		if err != nil {
			cl.stop()
			return nil, err
		}
	}
	return cl, nil
}

func (cl *cluster) stop() {
	if cl.follower != nil {
		cl.follower.stop()
	}
	if cl.server != nil {
		cl.server.stop()
	}
	_ = os.RemoveAll(cl.workRoot)
}

// storeStats scrapes a child's /.stats.
func storeStats(hc *http.Client, iface string) (ifsvr.StoreStats, error) {
	var st ifsvr.StoreStats
	resp, err := hc.Get(iface + ifsvr.StatsPath)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("bench: %s%s answered HTTP %d", iface, ifsvr.StatsPath, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
