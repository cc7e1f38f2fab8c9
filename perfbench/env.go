package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment describes where and how a run was made, for every result
// it prints or writes.
func environment(opts options) map[string]string {
	trace := "off"
	if opts.trace {
		trace = "on"
	}
	return map[string]string{
		"commit":     commit(),
		"source":     sourceDigest("."),
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   opts.workload,
		"seed":       strconv.FormatInt(opts.seed, 10),
		"seconds":    strconv.Itoa(opts.seconds),
		"tracing":    trace,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the git commit checked out in the working directory, or
// "none" when the directory is not the top of a git checkout (then the
// source digest identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "none"
	}
	top, head, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	if wd, err := filepath.Abs("."); err != nil || wd != top {
		return "none"
	}
	return head
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories and build output, so two runs can tell whether they
// measured the same code without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
