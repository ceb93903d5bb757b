package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gridJobs is the parallelism of the grid workload: min(nproc, 4).
func gridJobs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// repoRoot finds the simulator's module root: the nearest ancestor of the
// working directory that holds cmd/mindgap-bench. The harness is started
// either from the root (run.sh) or from benchmark/ (go run -C benchmark .).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mindgap-bench", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cannot find the mindgap module root above the working directory")
		}
		dir = parent
	}
}

// buildCLI builds mindgap-bench from source into .bench_build/ under the
// root. It runs before any workload and outside every setup_s.
func buildCLI(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "mindgap-bench")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/mindgap-bench")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mindgap-bench: %v\n%s", err, b)
	}
	return out, nil
}

// cliRun is one execution of the mindgap-bench binary.
type cliRun struct {
	Stdout, Stderr []byte
	Wall           time.Duration
	CPU            float64 // user+sys seconds, child rusage
	MaxRSSMB       float64
	Err            error
}

func runCLI(bin string, args ...string) cliRun {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := cliRun{Stdout: stdout.Bytes(), Stderr: stderr.Bytes(), Wall: time.Since(start), Err: err}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		r.CPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		r.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

// gridArgs is the full quick grid, the thing users run.
func gridArgs(jobs int) []string {
	return []string{"-quality", "quick", "-csv", "-j", strconv.Itoa(jobs)}
}

// smallGridArgs is one figure of the grid: the warm-up that pages the
// binary in, and the scope of the runner ledger on in-process workloads.
func smallGridArgs(jobs int) []string {
	return []string{"-fig", "2", "-quality", "quick", "-csv", "-j", strconv.Itoa(jobs)}
}

// csvRow is one figure point of the CLI's CSV output.
type csvRow struct {
	Figure, Series              string
	X                           float64
	P99, Completed, Preemptions int64
}

// parseGridCSV extracts the figure rows from mindgap-bench -csv output,
// which interleaves one CSV block per figure with the plain-text tables.
func parseGridCSV(out []byte) []csvRow {
	var rows []csvRow
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Count(line, ",") < 12 {
			continue
		}
		rec, err := csv.NewReader(strings.NewReader(line)).Read()
		if err != nil || len(rec) != 13 || rec[0] == "figure" {
			continue
		}
		x, err1 := strconv.ParseFloat(rec[2], 64)
		p99, err2 := strconv.ParseInt(rec[5], 10, 64)
		completed, err3 := strconv.ParseInt(rec[8], 10, 64)
		preempt, err4 := strconv.ParseInt(rec[10], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			continue
		}
		rows = append(rows, csvRow{Figure: rec[0], Series: rec[1], X: x, P99: p99, Completed: completed, Preemptions: preempt})
	}
	return rows
}

func completedSum(rows []csvRow) int64 {
	var n int64
	for _, r := range rows {
		n += r.Completed
	}
	return n
}

func hashBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:12])
}
