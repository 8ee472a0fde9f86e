#!/usr/bin/env python3
"""Turn bench_* output into figures.

Every experiment binary prints an ASCII table followed by a CSV block
fenced between `--- csv ---` and `--- end csv ---`. This script extracts
those blocks and renders the standard figures of the reproduction:

    # capture everything once
    for b in build/bench/bench_table* build/bench/bench_fig*; do $b; done > results.txt
    # render figures (PNG) into ./figs
    tools/plot_results.py results.txt --out figs

Matplotlib is optional: without it the script still extracts the CSV
blocks to <out>/<experiment>.csv so any plotting stack can consume them.
"""

import argparse
import csv
import io
import os
import re
import sys


def extract_blocks(text):
    """Yield (experiment_id, title, rows) for each CSV block."""
    experiment = "unknown"
    title = ""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        m = re.match(r"# experiment: (\S+)", line)
        if m:
            experiment = m.group(1)
        m = re.match(r"== (.*) ==", line)
        if m:
            title = m.group(1)
        if line.strip() == "--- csv ---":
            j = i + 1
            block = []
            while j < len(lines) and lines[j].strip() != "--- end csv ---":
                block.append(lines[j])
                j += 1
            rows = list(csv.reader(io.StringIO("\n".join(block))))
            if rows:
                yield experiment, title, rows
            i = j
        i += 1


def slug(s):
    return re.sub(r"[^a-zA-Z0-9]+", "_", s).strip("_").lower()


def write_csvs(blocks, outdir):
    written = []
    for experiment, title, rows in blocks:
        path = os.path.join(outdir, f"{slug(experiment)}__{slug(title)}.csv")
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        written.append(path)
    return written


def try_plot(blocks, outdir):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; CSVs extracted only", file=sys.stderr)
        return []

    made = []

    def save(fig, name):
        path = os.path.join(outdir, name + ".png")
        fig.tight_layout()
        fig.savefig(path, dpi=130)
        plt.close(fig)
        made.append(path)

    for experiment, title, rows in blocks:
        header, data = rows[0], rows[1:]
        if not data:
            continue
        cols = {h: [r[k] for r in data] for k, h in enumerate(header)}

        # Thread-scaling line charts (bench_par_scaling): threads on x,
        # speedup on y, one line per graph/algorithm pair.
        speed_col = next((h for h in header if "speedup" in h), None)
        if (speed_col and "threads" in header and "algorithm" in header
                and header[0] == "graph"):
            tcol = header.index("threads")
            scol = header.index(speed_col)
            pairs = list(dict.fromkeys(zip(cols["graph"], cols["algorithm"])))
            fig, ax = plt.subplots(figsize=(6, 4))
            max_t = 1
            for g, a in pairs:
                xs = [int(r[tcol]) for r in data if (r[0], r[1]) == (g, a)]
                ys = [float(r[scol]) for r in data if (r[0], r[1]) == (g, a)]
                max_t = max(max_t, *xs)
                ax.plot(xs, ys, marker="o", markersize=3, label=f"{g}/{a}")
            ax.plot([1, max_t], [1, max_t], "k--", linewidth=0.6,
                    label="ideal")
            ax.set_xlabel("threads")
            ax.set_ylabel(speed_col)
            ax.set_title(title, fontsize=9)
            ax.legend(fontsize=6)
            save(fig, f"{slug(experiment)}__{slug(title)}")

        # Grouped-bar speedup charts: any table with graph/algorithm-ish
        # first columns and a speedup column. (Thread-scaling tables are
        # handled above — a bar over them would collapse the sweep to the
        # first thread count.)
        elif speed_col and header[0] == "graph" and len(header) > 2:
            series_col = header[1]
            graphs = sorted(set(cols["graph"]), key=cols["graph"].index)
            series = sorted(set(cols[series_col]), key=cols[series_col].index)
            fig, ax = plt.subplots(figsize=(max(6, len(graphs) * 1.2), 4))
            width = 0.8 / max(1, len(series))
            for si, sname in enumerate(series):
                ys = []
                for g in graphs:
                    v = [
                        float(r[header.index(speed_col)])
                        for r in data
                        if r[0] == g and r[1] == sname
                    ]
                    ys.append(v[0] if v else 0.0)
                ax.bar(
                    [gi + si * width for gi in range(len(graphs))],
                    ys,
                    width,
                    label=str(sname)[:24],
                )
            ax.axhline(1.0, color="k", linewidth=0.6)
            ax.set_xticks([gi + 0.4 for gi in range(len(graphs))])
            ax.set_xticklabels(graphs, rotation=30, ha="right", fontsize=8)
            ax.set_ylabel(speed_col)
            ax.set_title(title, fontsize=9)
            ax.legend(fontsize=7)
            save(fig, f"{slug(experiment)}__{slug(title)}")

        # Service latency/throughput curve (bench_svc_throughput):
        # offered QPS on x, p50 and p99 latency on y (log scale), one
        # point per client-count sweep step.
        if "offered_qps" in header and "p50_ms" in header and "p99_ms" in header:
            qcol = header.index("offered_qps")
            order = sorted(range(len(data)), key=lambda k: float(data[k][qcol]))
            xs = [float(data[k][qcol]) for k in order]
            fig, ax = plt.subplots(figsize=(6, 4))
            for pcol, style in (("p50_ms", "o-"), ("p99_ms", "s--")):
                ys = [float(data[k][header.index(pcol)]) for k in order]
                ax.plot(xs, ys, style, markersize=4, label=pcol)
            if "clients" in header:
                ccol = header.index("clients")
                for k in order:
                    ax.annotate(data[k][ccol],
                                (float(data[k][qcol]),
                                 float(data[k][header.index("p99_ms")])),
                                textcoords="offset points", xytext=(0, 5),
                                fontsize=6)
            ax.set_yscale("log")
            ax.set_xlabel("offered load (requests/s)")
            ax.set_ylabel("latency (ms)")
            ax.set_title(title, fontsize=9)
            ax.legend(fontsize=7)
            save(fig, f"{slug(experiment)}__latency_curve")

        # Line charts for per-iteration activity.
        if "iteration" in header and "active" in header:
            graphs = sorted(set(cols["graph"]), key=cols["graph"].index)
            fig, ax = plt.subplots(figsize=(6, 4))
            for g in graphs:
                xs = [int(r[header.index("iteration")]) for r in data if r[0] == g]
                ys = [int(r[header.index("active")]) for r in data if r[0] == g]
                ax.plot(xs, ys, label=g)
            ax.set_yscale("log")
            ax.set_xlabel("iteration")
            ax.set_ylabel("active vertices")
            ax.set_title(title, fontsize=9)
            ax.legend(fontsize=7)
            save(fig, f"{slug(experiment)}__activity")

    return made


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("results", help="captured bench output (text)")
    ap.add_argument("--out", default="figs", help="output directory")
    args = ap.parse_args()

    with open(args.results) as f:
        text = f.read()
    blocks = list(extract_blocks(text))
    if not blocks:
        print("no CSV blocks found — is this bench output?", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    csvs = write_csvs(blocks, args.out)
    pngs = try_plot(blocks, args.out)
    print(f"extracted {len(csvs)} csv blocks, rendered {len(pngs)} figures "
          f"into {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
