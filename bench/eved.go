package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildEved compiles cmd/eved into bench/out. It runs once per workload,
// before any set-up is timed.
func buildEved(ctx context.Context, e env) (string, error) {
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(e.outDir(), "eved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/eved")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/eved: %w\n%s", err, out)
	}
	return bin, nil
}

// evedProc is one running daemon.
type evedProc struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:<port>
	drained chan struct{} // closed when the daemon's log reached EOF
}

const servingPrefix = "eved serving on "

// startEved spawns the daemon on a free loopback port, takes the address from
// its "eved serving on" log line and waits for /readyz. The churn interval is
// an hour, so the demo's capability changes never fire during a run.
func startEved(ctx context.Context, bin string, seed int64, client *http.Client, split cpuSplit) (*evedProc, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-interval", "1h", "-seed", strconv.FormatInt(seed, 10))
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := split.spawn(cmd.Start); err != nil {
		return nil, err
	}
	p := &evedProc{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), servingPrefix); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, logs) //nolint:errcheck // a log line too long for the scanner; keep the pipe drained
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("eved exited before serving")
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("eved did not log %q within 30s", servingPrefix)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.stop()
			if err != nil {
				return nil, fmt.Errorf("eved at %s never became ready: %w", p.base, err)
			}
			return nil, fmt.Errorf("eved at %s never became ready", p.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the daemon and returns once it has ended.
func (p *evedProc) stop() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-p.drained
	p.cmd.Wait() //nolint:errcheck // killed on purpose
}

// rssMB is the daemon's resident set (VmRSS) in MiB.
func (p *evedProc) rssMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", p.cmd.Process.Pid)
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every Linux the Go runtime supports.
const clockTick = 100

// cpuMs is the CPU time (user + system) the daemon has used, in milliseconds.
func (p *evedProc) cpuMs() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for pid %d", p.cmd.Process.Pid)
	}
	return (utime + stime) * 1000 / clockTick, nil
}
