package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spawn runs this binary as a child in the given mode, decodes the JSON
// report it prints into v and returns the CPU time the child used.
func spawn(kind string, p params, profile bool, v any) (cpuS float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	start := time.Now().UnixNano()
	cmd := exec.Command(exe, "-child", kind,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-t0", strconv.FormatInt(start, 10),
		"-profile="+strconv.FormatBool(profile))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("child %s: %w", kind, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return 0, fmt.Errorf("child %s report: %w", kind, err)
	}
	return (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(), nil
}

// childModes are the measurements that run in a fresh process.
var childModes = map[string]func(c *childEnv) (any, error){
	"fig6-setup": fig6Setup,
	"fig6-pass":  fig6Pass,
	"mix4-setup": mix4Setup,
	"mix4-run":   mix4Run,
}

// childEnv is what a child mode receives.
type childEnv struct {
	seed    int64
	seconds float64
	t0      int64 // parent's wall clock before starting this process
	profile bool
	prof    bytes.Buffer
}

// sinceStart is the wall time from the parent starting this process
// until now, in seconds.
func (c *childEnv) sinceStart() float64 {
	return float64(time.Now().UnixNano()-c.t0) / 1e9
}

// startProfile begins the CPU profile of the timed phase when asked.
func (c *childEnv) startProfile() error {
	if !c.profile {
		return nil
	}
	return pprof.StartCPUProfile(&c.prof)
}

// stopProfile ends the profile and folds it by layer.
func (c *childEnv) stopProfile() (layerProfile, error) {
	if !c.profile {
		return layerProfile{}, nil
	}
	pprof.StopCPUProfile()
	return foldProfile(c.prof.Bytes())
}

func runChild(kind string, seed int64, seconds float64, t0 int64, profile bool) error {
	mode, ok := childModes[kind]
	if !ok {
		return fmt.Errorf("unknown child mode %q", kind)
	}
	rep, err := mode(&childEnv{seed: seed, seconds: seconds, t0: t0, profile: profile})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// processCPUSeconds is this process's user+system CPU time so far.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads a process's peak resident set (VmHWM) from
// /proc/<pid>/status; pid "self" is this process. The child's own
// reading is used rather than the rusage its parent collects, because
// exec after a vfork-style clone folds the parent's peak into that.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %s", pid)
}
