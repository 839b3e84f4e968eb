// Package uvmasim is a pure-Go reproduction of "Performance Implications
// of Async Memcpy and UVM: A Tale of Two Data Transfer Modes" (Li et
// al., IISWC 2023).
//
// The repository models an A100-class CPU-GPU heterogeneous system —
// host DRAM, PCIe DMA, SM array with a unified L1/shared-memory
// partition, and the Unified Virtual Memory driver — and rebuilds the
// paper's 21-workload benchmark suite on a CUDA-shaped API so that the
// five data-transfer configurations (standard, async, uvm, uvm_prefetch,
// uvm_prefetch_async) can be compared the way the paper does.
//
// Entry points:
//
//   - cmd/uvmbench regenerates every table and figure.
//   - examples/ hold runnable programs against the public API.
//   - bench_test.go exposes one testing.B benchmark per table/figure.
//   - perfbench/ is the benchmark ledger: end-to-end and per-layer
//     metrics for the workloads declared in BENCHMARK.json.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison.
package uvmasim
