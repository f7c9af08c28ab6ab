#!/usr/bin/env python3
"""Checks vcmr_run's three telemetry exporters on one chaos run.

usage: check_telemetry.py VCMR_RUN OUT_DIR

Runs `VCMR_RUN scenarios/chaos_fast.xml` (from the current directory, which
must be the repository root) with --metrics-json, --trace-out and
--metrics-stream writing into OUT_DIR, then checks:

  * every file parses as JSON (the stream line by line);
  * the registry has scheduler/rpcs and the outcome counted RPCs;
  * the trace uses only the X, i, M and C phases, durations are
    non-negative, ts is monotone per track, and counter tracks exist;
  * no instant repeats: no two instants share (ts, tid, name, detail);
  * the stream has at least 3 rows with monotone sim_s, and its final row's
    counters equal the --metrics-json counters.

Exits non-zero on the first failed check.
"""

import collections
import json
import os
import subprocess
import sys


def run(vcmr_run, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ('metrics.json', 'trace.json', 'stream.jsonl')}
    subprocess.run([vcmr_run, 'scenarios/chaos_fast.xml',
                    '--metrics-json', paths['metrics.json'],
                    '--trace-out', paths['trace.json'],
                    '--metrics-stream', paths['stream.jsonl'],
                    '--stream-period', '60'],
                   check=True, stdout=subprocess.DEVNULL)
    return paths


def check(metrics_path, trace_path, stream_path):
    m = json.load(open(metrics_path))
    reg = m['registry']
    names = {(c['component'], c['name']) for c in reg['counters']}
    assert ('scheduler', 'rpcs') in names, 'scheduler/rpcs missing'
    assert m['outcome']['scheduler_rpcs'] > 0
    t = json.load(open(trace_path))
    evs = t['traceEvents']
    assert evs, 'empty trace'
    assert {e['ph'] for e in evs} <= {'X', 'i', 'M', 'C'}, 'unknown phase'
    last = {}
    for e in evs:
        if e['ph'] == 'M':
            continue
        assert e.get('dur', 0) >= 0, f'negative dur: {e}'
        # Counter tracks carry no tid: "ph":"C" series are keyed by
        # (pid, name) and get a per-name monotonicity check instead.
        tid = ('C', e['name']) if e['ph'] == 'C' else e['tid']
        assert e['ts'] >= last.get(tid, 0), f'ts not monotone: {e}'
        last[tid] = e['ts']
    ctracks = {e['name'] for e in evs if e['ph'] == 'C'}
    assert ctracks, 'no counter tracks in trace'
    # One event stream: a happening is rendered once, so no two instants
    # on a track share time, name and detail.
    instants = collections.Counter(
        (e['ts'], e['tid'], e['name'], e.get('args', {}).get('detail', ''))
        for e in evs if e['ph'] == 'i')
    repeats = {k: n for k, n in instants.items() if n > 1}
    assert not repeats, (
        f'{sum(repeats.values()) - len(repeats)} repeated instants '
        f'(ts, tid, name, detail), e.g. {sorted(repeats)[:3]}')
    # The stream: >= 2 during-run samples, sim time never decreases,
    # and the final row's counters equal the --metrics-json end state.
    rows = [json.loads(l) for l in open(stream_path)]
    assert len(rows) >= 3, f'only {len(rows)} stream rows'
    sims = [r['sim_s'] for r in rows]
    assert sims == sorted(sims), f'sim_s not monotone: {sims}'

    def key(c):
        return (c['component'], c['name'], tuple(sorted(c['labels'].items())))
    final = {key(c): c['value'] for c in rows[-1]['counters']}
    end = {key(c): c['value'] for c in reg['counters']}
    assert final == end, 'final stream row != metrics.json counters'
    print(f"{len(reg['counters'])} counters, "
          f"{len(reg['histograms'])} histograms, "
          f"{len(evs)} trace events ({len(instants)} distinct instants), "
          f"{len(ctracks)} counter tracks, "
          f"{len(rows)} stream samples OK")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    paths = run(argv[1], argv[2])
    check(paths['metrics.json'], paths['trace.json'], paths['stream.jsonl'])


if __name__ == '__main__':
    main(sys.argv)
