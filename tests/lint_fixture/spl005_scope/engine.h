// SPL005 scope fixture, linted as one tree: engine.h annotates the confined
// state, engine.cpp is its same-stem source, and includer.cpp only includes
// the header. Lint-only, never compiled.
struct ObsConfig {
  bool recorder = false;
};

class Engine {
 public:
  void drain();
  void reset();

 private:
  struct Shard {
    SPLICE_SHARD_CONFINED int recorder = 0;
  };
  Shard shard_;
};
