// gs:hot-path — the per-epoch kernel must not allocate.
namespace gs::sim {
struct State { double acc = 0.0; };
void setup(Buffers& b) {
  // One-time scratch warm-up, off the epoch path. gs-lint: allow(hot-path-alloc)
  b.scratch.reserve(4096);
}
double step(const State& s, double x) { return s.acc + x; }
}  // namespace gs::sim
