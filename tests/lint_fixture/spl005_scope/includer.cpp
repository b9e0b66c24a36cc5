// Includes the annotating header, but the confined member is private to
// Engine: a `.recorder` here is some other object's, so SPL005 stays quiet.
#include "engine.h"

void configure(ObsConfig& obs, bool recorder) {
  obs.recorder = recorder;
}
