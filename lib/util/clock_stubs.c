/* Monotonic time for deadlines and queue timestamps: unaffected by wall
   clock steps (NTP, settimeofday), unlike gettimeofday. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double treediff_clock_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value treediff_clock_now(value unit)
{
  return caml_copy_double(treediff_clock_now_unboxed(unit));
}
