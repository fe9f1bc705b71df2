"""DET003 fixture: set iteration in a file that schedules only through
the simulator's fast path."""


def fan_out(sim, ports):
    for port in set(ports):  # violation
        sim.schedule_fast(0.001, port.drain)


def fan_out_ok(sim, ports):
    for port in sorted(set(ports)):
        sim.schedule_fast(0.001, port.drain)
