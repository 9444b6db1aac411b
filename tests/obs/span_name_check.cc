// Compiled, never linked or run, by the ObsSpanName ctests: with a
// registered name this TU must build, and with LOCKDOWN_UNREGISTERED_SPAN
// defined OBS_SPAN gets a name missing from src/obs/span_names.h and the TU
// must not build.
#include "obs/trace.h"

void Instrumented() {
#ifdef LOCKDOWN_UNREGISTERED_SPAN
  OBS_SPAN("core/typo");
#else
  OBS_SPAN("study/pass");
#endif
}
