#include "engine.h"

SPLICE_SHARD_ENTRY
void Engine::drain() {
  shard_.recorder = 0;  // fine: inside an entry function
}

void Engine::reset() {
  shard_.recorder = 1;  // expect-lint: SPL005
}
