package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one named rectangular result (the rows the paper's figure
// plots or the table prints).
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// WriteCSV serializes the table.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("experiments: writing header of %s: %w", t.Name, err)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("experiments: table %s row %d has %d cells, header %d", t.Name, i, len(row), len(t.Header))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: writing row %d of %s: %w", i, t.Name, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Text is the rendered ASCII figure / summary.
	Text string
	// Tables hold the regenerated data series.
	Tables []Table
}

// Render returns the full human-readable report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	b.WriteString(r.Text)
	return b.String()
}

// RenderMarkdown returns the report as a Markdown section: the ASCII
// figure in a code fence followed by every table.
func (r *Report) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "```\n%s```\n", ensureTrailingNewline(r.Text))
	for _, tab := range r.Tables {
		fmt.Fprintf(&b, "\n### %s\n\n", tab.Name)
		b.WriteString("| " + strings.Join(tab.Header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat(" --- |", len(tab.Header)) + "\n")
		for _, row := range tab.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
	}
	return b.String()
}

func ensureTrailingNewline(s string) string {
	if s == "" || strings.HasSuffix(s, "\n") {
		return s
	}
	return s + "\n"
}

// Runner produces a report for a configuration. The context is
// propagated into the evaluation fan-outs below, so a runner invoked
// under an active trace span (vup-experiments -trace) records its
// fleet evaluations and fits as child spans.
type Runner func(context.Context, Config) (*Report, error)

// registry maps experiment IDs to runners. Populated by init
// functions next to each experiment.
var registry = map[string]Runner{}

// titleIndex remembers experiment titles for listings.
var titleIndex = map[string]string{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = run
	titleIndex[id] = title
}

// IDs returns every registered experiment ID, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the registered title of an experiment.
func Title(id string) string { return titleIndex[id] }

// RunContext executes the experiment with the given ID. When ctx
// carries an active trace span, the experiment's pipeline stages
// appear as child spans.
func RunContext(ctx context.Context, id string, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	run, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return run(ctx, cfg)
}
