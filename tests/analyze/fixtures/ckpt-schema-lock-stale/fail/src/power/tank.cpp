namespace gs::power {
class Tank {
 public:
  static constexpr std::uint32_t kStateVersion = 2;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);
 private:
  double level_ = 0.0;
  std::uint64_t refills_ = 0;
};
void Tank::save_state(ckpt::StateWriter& w) const {
  w.begin_section("tank", kStateVersion);
  w.f64(level_);
  w.u64(refills_);
  w.f64(0.0);
  w.end_section();
}
void Tank::load_state(ckpt::StateReader& r) {
  r.begin_section("tank", kStateVersion);
  level_ = r.f64();
  refills_ = r.u64();
  r.f64();
  r.end_section();
}
}  // namespace gs::power
