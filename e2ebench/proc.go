package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStats is what one finished program process cost.
type procStats struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssKiB int64         // peak resident set
}

// finish collects a waited process's resource usage.
func finish(ps *os.ProcessState, wall time.Duration) procStats {
	st := procStats{wall: wall, cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.rssKiB = ru.Maxrss // kilobytes on Linux
	}
	return st
}

// runProgram runs one program to completion with stdout sent to
// outPath (discarded when empty) and reports its cost. A non-zero exit,
// or a run longer than two minutes, is an error carrying the tail of
// its standard error.
func runProgram(outPath string, name string, args ...string) (procStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	var stderr strings.Builder
	cmd.Stderr = &limitedWriter{w: &stderr, n: 4096}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return procStats{}, err
		}
		defer f.Close()
		cmd.Stdout = f
	}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return procStats{}, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, stderr.String())
	}
	return finish(cmd.ProcessState, time.Since(start)), nil
}

// limitedWriter keeps the first n bytes written to it.
type limitedWriter struct {
	w io.Writer
	n int
}

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.n > 0 {
		k := min(len(p), l.n)
		l.w.Write(p[:k])
		l.n -= k
	}
	return len(p), nil
}

// daemon is a long-running program process (loopscoped or
// loopscope-agg) with its stderr captured to a log file.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time
	url     string // http://127.0.0.1:port/
	log     *os.File
	done    chan struct{}
	err     error
}

// startDaemon launches a program serving HTTP on addr.
func startDaemon(logPath, addr, name string, args ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(name, args...)
	cmd.Stderr = lf
	d := &daemon{cmd: cmd, url: "http://" + addr + "/", log: lf, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop sends SIGTERM, waits for a clean exit and returns the process's
// cost. A process still alive after the timeout is killed and the stop
// fails.
func (d *daemon) stop(timeout time.Duration) (procStats, error) {
	defer d.log.Close()
	select {
	case <-d.done:
		return procStats{}, fmt.Errorf("%s exited early: %v (log %s)", d.cmd.Path, d.err, d.log.Name())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return procStats{}, err
	}
	select {
	case <-d.done:
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-d.done
		return procStats{}, fmt.Errorf("%s did not stop within %v", d.cmd.Path, timeout)
	}
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return procStats{}, fmt.Errorf("%s: %w (log %s)", d.cmd.Path, errSIGTERMDefault, d.log.Name())
	}
	if d.err != nil {
		return procStats{}, fmt.Errorf("%s: %v (log %s)", d.cmd.Path, d.err, d.log.Name())
	}
	return finish(d.cmd.ProcessState, time.Since(d.started)), nil
}

// errSIGTERMDefault reports a program that died of SIGTERM's default
// action instead of shutting down: the signal arrived before the
// program installed its handler, although it already answered health
// checks.
var errSIGTERMDefault = errors.New("killed by SIGTERM before its handler was installed")

// kill ends the process without ceremony; used on error paths so no
// program outlives the benchmark.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// freeAddr picks a loopback port for a program to serve on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

var client = &http.Client{Timeout: 10 * time.Second}

// waitHealthy polls url's /api/v1/health until it answers 200 or the
// process dies or the deadline passes.
func waitHealthy(d *daemon, deadline time.Time) error {
	for {
		resp, err := client.Get(d.url + "api/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before answering health: %v (log %s)", d.cmd.Path, d.err, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy by deadline (log %s)", d.cmd.Path, d.log.Name())
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// scrapeMetrics fetches a program's Prometheus /metrics and sums the
// samples of each metric family (labels dropped).
func scrapeMetrics(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %smetrics: %s", base, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
