# Convenience targets for the ELSC reproduction.
#
# Everything runs against the source tree directly (PYTHONPATH=src),
# matching the tier-1 invocation in ROADMAP.md — no install step needed.

PYTHON ?= python
PY = PYTHONPATH=src $(PYTHON)
JOBS ?= 0

.PHONY: install test stress microbench microbench-full report sweep examples cluster-smoke cluster-heal-smoke clean clean-cache

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	$(PY) -m pytest -x -q

# The stress tier: long fuzz sweeps the tier-1 run excludes, plus the
# stress-parity gate at CI scale (100 seeded scenarios, every scheduler).
stress:
	$(PY) -m pytest -q -m "stress or slow"
	$(PY) tools/stress_parity.py --seed 0 --count 100 --quiet

# The paper table/figure micro-benchmarks (pytest-benchmark).
microbench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

microbench-full:
	$(PY) -m pytest benchmarks/ -s

report:
	$(PY) -m repro report --messages 6 --jobs $(JOBS) --output results/measured.txt

sweep:
	$(PY) -m repro sweep --schedulers elsc,reg --specs UP,1P,2P,4P --jobs $(JOBS)

# Kill a shard mid-loadtest under both interior framings; exits nonzero
# if any completion is dropped or the follower is not promoted.
# (--no-respawn pins the historical degraded-mode run.)
cluster-smoke:
	$(PY) -m repro cluster chaos --plan kill-one-shard --no-respawn --shards 2 --rooms 8 --clients 2 --messages 25 --interval-ms 80 --duration 12 --framing json --json results/cluster-chaos-json.json
	$(PY) -m repro cluster chaos --plan kill-one-shard --no-respawn --shards 2 --rooms 8 --clients 2 --messages 25 --interval-ms 80 --duration 12 --framing binary --json results/cluster-chaos-binary.json

# The self-healing gate: kill a shard, let the supervisor respawn it,
# and require the slot handback to restore full capacity with
# post-recovery throughput within 15% of pre-kill — on top of zero
# dropped completions.  The send schedule (45 x 80ms) outlives
# kill + respawn + handback so the recovery window measures steady state.
cluster-heal-smoke:
	$(PY) -m repro cluster chaos --plan kill-respawn-shard --shards 2 --rooms 8 --clients 2 --messages 45 --interval-ms 80 --duration 15 --framing json --json results/cluster-heal-json.json
	$(PY) -m repro cluster chaos --plan kill-respawn-shard --shards 2 --rooms 8 --clients 2 --messages 45 --interval-ms 80 --duration 15 --framing binary --json results/cluster-heal-binary.json

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/recalc_pathology.py
	$(PY) examples/custom_scheduler.py
	$(PY) examples/apache_webserver.py
	$(PY) examples/select_vs_threads.py
	$(PY) examples/priority_lab.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build *.egg-info src/*.egg-info

clean-cache:
	rm -rf results/cache results/manifest.jsonl
