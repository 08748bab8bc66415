package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The one rwrd deployment every workload runs against: the defaults plus
// these flags, so a gain for one kind of traffic that costs another shows.
// webstan-s at scale 1 fits in a core's L2, which keeps solver times steady
// on a shared host.
const datasetName = "webstan-s"

var deployment = []string{"-dataset", datasetName, "-scale", "1", "-live", "-hot-mem-mb", "16"}

// rwrd is one running server process.
type rwrd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, set before done closes
}

// launch starts bin with the deployment flags and returns once
// /readyz answers 200, with the time from process start to that answer.
// The server's stderr goes to logPath when it is set and to /dev/null
// otherwise: rwrd logs one line per request, and an undrained pipe would
// block it.
func launch(bin, logPath string) (*rwrd, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, deployment...)...)
	if logPath == "" {
		logPath = os.DevNull
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rwrd: %w", err)
	}
	s := &rwrd{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	setup, err := s.awaitReady(start, 60*time.Second)
	if err != nil {
		s.kill()
		if logPath != os.DevNull {
			err = fmt.Errorf("%w; rwrd log: %s", err, tail(logPath, 2048))
		}
		return nil, 0, err
	}
	return s, setup, nil
}

// awaitReady polls /readyz on fresh connections until it answers 200.
func (s *rwrd) awaitReady(start time.Time, limit time.Duration) (time.Duration, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < limit {
		select {
		case <-s.done:
			return 0, fmt.Errorf("rwrd exited before ready: %v", s.err)
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return 0, fmt.Errorf("rwrd not ready after %v", limit)
}

// stop asks the server to shut down gracefully and waits for it to exit,
// killing it if the drain takes longer than grace.
func (s *rwrd) stop(grace time.Duration) error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reports that
	select {
	case <-s.done:
	case <-time.After(grace):
		s.kill()
		return fmt.Errorf("rwrd did not stop within %v", grace)
	}
	var exit *exec.ExitError
	if errors.As(s.err, &exit) {
		return fmt.Errorf("rwrd exited: %w", s.err)
	}
	return nil
}

// kill stops the process at once and waits for it.
func (s *rwrd) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.done
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (s *rwrd) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// measureSetup launches and kills the server count times and returns each
// launch's time to ready.
func measureSetup(ctx context.Context, bin, logPath string, count int) ([]float64, error) {
	out := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, d, err := launch(bin, logPath)
		if err != nil {
			return nil, err
		}
		s.kill()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns up to the last max bytes of a file, for error messages.
func tail(path string, max int64) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if int64(len(b)) > max {
		b = b[int64(len(b))-max:]
	}
	return strings.TrimSpace(string(b))
}
