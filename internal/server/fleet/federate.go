package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file implements the coordinator's federated /metrics: one
// scrape of the coordinator answers with the coordinator's own series
// plus every reachable worker's, each worker sample re-labeled with
// worker="wN". A fleet then needs exactly one Prometheus target, and
// per-shard breakdowns fall out of the worker label instead of
// per-target relabeling config.

// scrapeTimeout bounds each worker's /metrics fetch; a dead worker
// costs one timeout, not a hung federation scrape.
const scrapeTimeout = 2 * time.Second

// federate serves the federated exposition. Worker scrapes run
// concurrently; a failed scrape degrades to a comment line naming the
// worker, never a failed response (the coordinator's own series must
// stay scrapeable while shards are down).
func (co *Coordinator) federate(w http.ResponseWriter, r *http.Request) {
	var own strings.Builder
	_ = co.obs.Reg.WriteProm(&own)

	bodies := make([]string, len(co.workers))
	errs := make([]error, len(co.workers))
	var wg sync.WaitGroup
	for i, wk := range co.workers {
		i, wk := i, wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], errs[i] = co.scrapeWorker(r.Context(), wk.base)
		}()
	}
	wg.Wait()

	merged := newExposition()
	merged.add(own.String(), "") // coordinator series stay unlabeled
	var down []string
	for i, wk := range co.workers {
		if errs[i] != nil {
			down = append(down, fmt.Sprintf("# federation: worker %s unreachable: %v", wk.name, errs[i]))
			continue
		}
		merged.add(bodies[i], wk.name)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, line := range down {
		fmt.Fprintln(w, line)
	}
	merged.write(w)
}

// scrapeWorker fetches one worker's /metrics text.
func (co *Coordinator) scrapeWorker(ctx context.Context, base string) (string, error) {
	sctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	hc := co.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return string(body), nil
}

// exposition accumulates samples grouped by metric family, so merged
// output keeps each family's HELP/TYPE header immediately above all
// of its samples (histogram _bucket/_sum/_count series stay grouped
// under their base family, as the text format requires).
type exposition struct {
	families map[string]*famChunk
	names    []string
}

type famChunk struct {
	help    string
	typ     string
	samples []string
}

func newExposition() *exposition {
	return &exposition{families: make(map[string]*famChunk)}
}

// add parses one exposition body and appends its samples, labeling
// each with worker="<worker>" when worker is non-empty. Sample lines
// are attributed to the family of the most recent # TYPE line, which
// is how both the registry and Prometheus order their output.
func (e *exposition) add(body, worker string) {
	var cur *famChunk
	var pendingHelp string
	var pendingHelpName string
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			if sp := strings.IndexByte(rest, ' '); sp > 0 {
				pendingHelpName, pendingHelp = rest[:sp], line
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			sp := strings.IndexByte(rest, ' ')
			if sp <= 0 {
				continue
			}
			name := rest[:sp]
			cur = e.family(name)
			if cur.typ == "" {
				cur.typ = line
			}
			if cur.help == "" && pendingHelpName == name {
				cur.help = pendingHelp
			}
		case strings.HasPrefix(line, "#"):
			// Free-form comment: not part of any family; drop it.
		default:
			if cur == nil {
				// A sample before any TYPE line: attribute it to its own
				// name so it is not lost (the registry never emits this,
				// but a foreign exposition might).
				name := line
				if cut := strings.IndexAny(line, "{ "); cut > 0 {
					name = line[:cut]
				}
				cur = e.family(strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count"))
			}
			cur.samples = append(cur.samples, labelSample(line, worker))
		}
	}
}

func (e *exposition) family(name string) *famChunk {
	if f, ok := e.families[name]; ok {
		return f
	}
	f := &famChunk{}
	e.families[name] = f
	e.names = append(e.names, name)
	return f
}

// labelSample injects worker="<worker>" into one sample line. The
// label is appended last inside the braces; the search for the brace
// runs from the right because label VALUES may contain '{' but the
// sample's value/timestamp tail never contains '}'.
func labelSample(line, worker string) string {
	if worker == "" {
		return line
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return line // not a sample; pass through untouched
	}
	head, tail := line[:sp], line[sp:]
	if i := strings.LastIndexByte(head, '}'); i >= 0 {
		return head[:i] + `,worker="` + worker + `"}` + tail
	}
	return head + `{worker="` + worker + `"}` + tail
}

// write renders the merged exposition, families sorted by name.
func (e *exposition) write(w io.Writer) {
	sort.Strings(e.names)
	for _, name := range e.names {
		f := e.families[name]
		if f.help != "" {
			fmt.Fprintln(w, f.help)
		}
		if f.typ != "" {
			fmt.Fprintln(w, f.typ)
		}
		for _, s := range f.samples {
			fmt.Fprintln(w, s)
		}
	}
}
