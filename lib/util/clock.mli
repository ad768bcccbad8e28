(** The process's one monotonic clock.

    Deadlines, queue timestamps and uptimes measure intervals, so they read
    [CLOCK_MONOTONIC]: a wall-clock step (NTP, a manual [date]) can neither
    expire a deadline early nor stretch it.  The origin is arbitrary (boot
    time on Linux), so an instant is only meaningful against another
    instant of this clock — never against [Unix.gettimeofday]. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin; never decreases. *)
