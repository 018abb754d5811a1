package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one eventmatchd child process with default flags, an ephemeral
// port and a data directory, so the journal and its fsyncs are in the path.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
	stopped bool
}

const bootLimit = 30 * time.Second

func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "daemon.log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", filepath.Join(dir, "data"))
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting eventmatchd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		f.Close()
		close(d.exited)
	}()
	deadline := time.Now().Add(bootLimit)
	marker := []byte("listening on ")
	for d.base == "" {
		data, _ := os.ReadFile(logPath)
		if i := bytes.Index(data, marker); i >= 0 {
			rest := data[i+len(marker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				d.base = string(rest[:j])
				break
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("eventmatchd exited while booting (%v): %s", d.waitErr, data)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("eventmatchd did not start listening")
		}
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("eventmatchd /healthz did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain does not finish. Stopping twice is harmless.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(bootLimit):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("eventmatchd did not drain after SIGTERM; killed")
	}
	if d.waitErr != nil {
		return fmt.Errorf("eventmatchd: %w", d.waitErr)
	}
	return nil
}

// peakRSSMB reads the daemon's peak resident set size from /proc.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// peakRSSMB reads a process's peak resident set size from /proc.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
