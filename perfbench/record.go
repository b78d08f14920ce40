package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"needle/internal/core"
	"needle/internal/workloads"
)

// recordExpected regenerates expected.json. It builds the needle CLI from
// the checkout and records the digest of every output the benchmark checks:
//
//   - the full sweep, from `needle -j 1 -json`, with its capture counts;
//   - each ablation config's cold sweep, in process with no store (the CLI
//     has no flags for these knobs; the default config's in-process sweep
//     must equal the CLI's);
//   - each serve-mixed request: `needle -json -workload`, `needle -nir
//     -json` or `needle -vet -json` output, or, for built-in workloads under
//     a non-default config, the same analysis run in process (checked
//     against the CLI for the default config of every workload).
//
// Run it only when the program's outputs change on purpose:
//
//	bash perfbench/run.sh --record
func recordExpected(root string) error {
	dir := filepath.Join(root, ".bench_build", "perfbench", "record")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cli := filepath.Join(dir, "needle")
	build := exec.Command("go", "build", "-o", cli, "./cmd/needle")
	build.Dir = root
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building needle: %w", err)
	}
	ctx := context.Background()
	exp := expected{Ablate: map[string]string{}, Serve: map[string]string{}}

	out, err := runCLI(cli, "-j", "1", "-json")
	if err != nil {
		return err
	}
	exp.Sweep.Digest = digest(out)
	as, inproc, _, err := sweep(ctx, core.New(core.WithJobs(1)), core.DefaultConfig())
	if err != nil {
		return err
	}
	if !bytes.Equal(inproc, out) {
		return errors.New("in-process sweep differs from `needle -j 1 -json`")
	}
	for _, a := range as {
		exp.Sweep.Instrs += a.Trace.Mix.Total
		exp.Sweep.Occ += int64(len(a.Trace.Occ))
	}

	for _, c := range append(ablateFill(), ablateUniverse()...) {
		_, out, _, err := sweep(ctx, core.New(core.WithJobs(2)), c.cfg)
		if err != nil {
			return fmt.Errorf("ablation %s: %w", c.key, err)
		}
		exp.Ablate[c.key] = digest(out)
		fmt.Fprintf(os.Stderr, "ablate %s %.12s\n", c.key, exp.Ablate[c.key])
	}
	if exp.Ablate[ablateFill()[0].key] != exp.Sweep.Digest {
		return errors.New("default ablation config differs from the CLI sweep")
	}

	u, err := newServeUniverse()
	if err != nil {
		return err
	}
	for _, name := range vetSources {
		src, err := inputSource(name)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".nir"), []byte(src), 0o644); err != nil {
			return err
		}
	}
	reqs := append(append(append([]request(nil), u.analyze...), u.nir...), u.vet...)
	for _, r := range reqs {
		out, err := expectedResponse(ctx, cli, dir, r)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		exp.Serve[r.key] = digest(out)
	}

	js, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "expected.json"), append(js, '\n'), 0o644)
}

// expectedResponse produces the bytes a serve-mixed request must answer
// with.
func expectedResponse(ctx context.Context, cli, dir string, r request) ([]byte, error) {
	switch {
	case r.path == "/v1/vet" && r.wl != "":
		return runCLI(cli, "-vet", "-json", "-workload", r.wl)
	case r.path == "/v1/vet":
		return runCLI(cli, "-vet", "-json", "-nir", filepath.Join(dir, sourceName(r.key)+".nir"))
	case r.src != "":
		return runCLI(cli, "-json", "-nir", filepath.Join(dir, sourceName(r.key)+".nir"), "-args", strings.Join(r.args, ","))
	}
	cfg := core.DefaultConfig()
	if r.cfg != nil {
		cfg = *r.cfg
	}
	a, err := core.New().RunWorkload(ctx, workloads.ByName(r.wl), cfg)
	if err != nil {
		return nil, err
	}
	out, err := core.MarshalSummaries([]*core.Analysis{a})
	if err != nil {
		return nil, err
	}
	out = append(out, '\n')
	if r.cfg == nil {
		cliOut, err := runCLI(cli, "-json", "-workload", r.wl)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(cliOut, out) {
			return nil, errors.New("in-process analysis differs from `needle -json -workload`")
		}
	}
	return out, nil
}

// sourceName is the input file a nir or vet request key names
// ("nir/saxpy/..." or "vet/saxpy").
func sourceName(key string) string {
	return strings.Split(key, "/")[1]
}

// runCLI runs the needle CLI and returns its standard output. `needle
// -vet` exits 1 when its report holds an error diagnostic; that report is
// still the output.
func runCLI(cli string, args ...string) ([]byte, error) {
	cmd := exec.Command(cli, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 1 && args[0] == "-vet" && len(out) > 0 {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("needle %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}
