/* Pin the calling thread to one CPU. Linux only; elsewhere, and when
   the CPU is not available to the process, nothing is pinned and the
   call answers false. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>
#endif

value perfbench_pin_self(value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}
