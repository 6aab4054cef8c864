# Convenience targets for the REALM reproduction.

PYTHON ?= python3

# tier-1 tests + a quick smoke of the parallel Monte-Carlo engine and of
# warehouse reuse (cold pass with 2 workers, then a warm pass that must
# reuse every design)
VERIFY_ENV = PYTHONPATH=src REPRO_BENCH_SAMPLES=262144 REPRO_BENCH_WORKERS=2 \
	REPRO_WAREHOUSE_DIR=.repro-engine

.PHONY: install test nightly bench experiments examples quick verify serve-smoke serve-chaos clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# exhaustive 256x256 model-vs-RTL sweep + full-budget conformance fuzzing
# (what the scheduled CI job runs)
nightly:
	PYTHONPATH=src REPRO_NIGHTLY=1 $(PYTHON) -m pytest tests/test_rtl_equivalence.py tests/test_conformance.py tests/test_formal.py -m nightly

verify:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q
	rm -rf .repro-engine
	$(VERIFY_ENV) $(PYTHON) -m pytest benchmarks/bench_table1_errors.py --benchmark-only -q
	$(VERIFY_ENV) $(PYTHON) -m repro report --json > .repro-engine/cold.json
	@echo "--- warm second pass: every design reused from the warehouse ---"
	$(VERIFY_ENV) $(PYTHON) -m pytest benchmarks/bench_table1_errors.py --benchmark-only -q
	$(VERIFY_ENV) $(PYTHON) -m repro report --json | $(PYTHON) tools/check_reuse.py .repro-engine/cold.json
	rm -rf .repro-engine
	@echo "--- Table I worker-count identity (stdout at 1 and 2 workers) ---"
	mkdir -p .repro-identity
	PYTHONPATH=src $(PYTHON) -m repro table1 --samples 262144 --no-warehouse \
		--workers 1 > .repro-identity/table1-w1.txt
	PYTHONPATH=src $(PYTHON) -m repro table1 --samples 262144 --no-warehouse \
		--workers 2 > .repro-identity/table1-w2.txt
	cmp .repro-identity/table1-w1.txt .repro-identity/table1-w2.txt
	@echo "--- damaged-warehouse identity (a store that lost its results table) ---"
	PYTHONPATH=src $(PYTHON) -m repro characterize calm --quick \
		--warehouse .repro-identity/damaged > /dev/null
	$(PYTHON) -c "import sqlite3, sys; c = sqlite3.connect(sys.argv[1]); c.execute('DROP TABLE results'); c.commit()" .repro-identity/damaged/warehouse.db
	PYTHONPATH=src $(PYTHON) -m repro table1 --samples 262144 \
		--warehouse .repro-identity/damaged > .repro-identity/table1-damaged.txt
	cmp .repro-identity/table1-w1.txt .repro-identity/table1-damaged.txt
	status=0; PYTHONPATH=src $(PYTHON) -m repro report --warehouse .repro-identity/damaged \
		2> .repro-identity/report.err || status=$$?; test $$status -eq 1
	grep -q "^error:" .repro-identity/report.err
	! grep -q Traceback .repro-identity/report.err
	@echo "--- conformance report determinism (JSON report of two runs) ---"
	PYTHONPATH=src $(PYTHON) -m repro conform --design realm-16-m4-q5 --budget 20000 \
		--seed 0 --json .repro-identity/conform-1.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro conform --design realm-16-m4-q5 --budget 20000 \
		--seed 0 --json .repro-identity/conform-2.json > /dev/null
	cmp .repro-identity/conform-1.json .repro-identity/conform-2.json
	rm -rf .repro-identity
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py --only base
	@echo "--- serve chaos smoke (supervised fleet) ---"
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py --only chaos
	@echo "--- seeded conformance slice ---"
	PYTHONPATH=src $(PYTHON) -m repro conform --design realm-16-m4-q5 --budget 20000 --seed 0
	@echo "--- structure identity (netlists, formula tables, fingerprints) ---"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_structure_digests.py -q
	@echo "--- synthesis and fault results identity (committed bench results) ---"
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_table1_synthesis.py \
		benchmarks/bench_ablation_faults.py --benchmark-disable -q
	git diff --exit-code benchmarks/results/table1_synthesis.txt \
		benchmarks/results/ablation_faults.txt
	@echo "--- MAC identity (table and direct paths, application digests and results) ---"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_signed.py tests/test_application_digests.py -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_table2_jpeg.py \
		benchmarks/bench_app_table2_extended.py benchmarks/bench_app_fir_filter.py \
		benchmarks/bench_app_neural_network.py benchmarks/bench_app_rate_distortion.py \
		--benchmark-disable -q
	git diff --exit-code benchmarks/results/table2_jpeg.txt \
		benchmarks/results/app_table2_extended.txt benchmarks/results/app_fir_filter.txt \
		benchmarks/results/app_neural_network.txt benchmarks/results/app_rate_distortion.txt
	@echo "--- CNN application smoke (5 designs) ---"
	PYTHONPATH=src $(PYTHON) -m repro cnn accurate scaletrim-t4-c2 alm-maa-m3 am1-nb13 \
		intalp-l2 --no-warehouse
	@echo "--- MAC application examples ---"
	PYTHONPATH=src $(PYTHON) examples/signed_dot_product.py
	PYTHONPATH=src $(PYTHON) examples/floating_point_and_dsp.py
	PYTHONPATH=src $(PYTHON) examples/neural_network.py
	PYTHONPATH=src $(PYTHON) examples/jpeg_compression.py
	@echo "--- compiled-kernel smoke (the default path vs the interpreted model) ---"
	PYTHONPATH=src $(PYTHON) -m repro conform --design realm-16-m4-q5 --budget 20000 --seed 0 \
		--layers model rtl kernel exact
	PYTHONPATH=src $(PYTHON) -m repro conform --design am2-nb13 --budget 20000 --seed 0 \
		--layers model rtl kernel exact
	PYTHONPATH=src $(PYTHON) -m repro conform --design intalp-l2 --budget 20000 --seed 0 \
		--layers model rtl kernel exact
	@echo "--- formal smoke (8-bit equivalence proof + certified peaks, one 12-bit proof) ---"
	PYTHONPATH=src $(PYTHON) -m repro formal --design realm-8-m4-q5 --prove-equiv --max-error
	for design in am2-nb13 calm alm-soa-m3 alm-maa-m3 mbm-t2 drum-k5 \
			scaletrim-t4-c2 dnnco-l6 accurate; do \
		PYTHONPATH=src $(PYTHON) -m repro formal --design $$design --bitwidth 8 \
			--prove-equiv --max-error || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro formal --design realm16-t0 --bitwidth 12 --prove-equiv
	@echo "--- certificate reuse (a formal row read back by Table I) ---"
	rm -rf .repro-formal
	PYTHONPATH=src $(PYTHON) -m repro formal --design drum-k8 --max-error --warehouse .repro-formal
	PYTHONPATH=src $(PYTHON) -m repro table1 --quick --warehouse .repro-formal \
		| grep -q "formally certified worst-case peak"
	rm -rf .repro-formal
	@echo "--- warehouse smoke (record, warm reuse, trend report) ---"
	rm -rf .repro-warehouse
	PYTHONPATH=src REPRO_WAREHOUSE_DIR=.repro-warehouse $(PYTHON) -m repro characterize calm --quick
	PYTHONPATH=src REPRO_WAREHOUSE_DIR=.repro-warehouse $(PYTHON) -m repro report --json > .repro-warehouse/cold.json
	PYTHONPATH=src REPRO_WAREHOUSE_DIR=.repro-warehouse $(PYTHON) -m repro characterize calm --quick
	PYTHONPATH=src REPRO_WAREHOUSE_DIR=.repro-warehouse $(PYTHON) -m repro report --json \
		| $(PYTHON) tools/check_reuse.py .repro-warehouse/cold.json
	PYTHONPATH=src REPRO_WAREHOUSE_DIR=.repro-warehouse $(PYTHON) -m repro report
	PYTHONPATH=src REPRO_WAREHOUSE_DIR=.repro-warehouse $(PYTHON) -m repro report --json > /dev/null
	rm -rf .repro-warehouse
	PYTHONPATH=src $(PYTHON) benchmarks/bench_kernels.py

# live TCP server under a mixed workload; asserts fused serve.batch
# spans, zero shed and bit-identical responses (DESIGN.md §10)
serve-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py --only base

# kill-the-workers load test: 4 supervised shards, 2 deterministic
# crashes + 1 hang, zero lost responses, bounded recovery (DESIGN.md §13)
serve-chaos:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py --only chaos

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# full 2^24 reproduction run; rewrites EXPERIMENTS.md (minutes)
experiments:
	$(PYTHON) tools/generate_experiments_md.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

quick:
	$(PYTHON) -m repro table1 --quick

clean:
	rm -rf build *.egg-info .pytest_cache benchmarks/results .repro-engine .repro-warehouse .repro-identity \
		.repro-formal
	find . -name __pycache__ -type d -exec rm -rf {} +
