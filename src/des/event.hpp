// Discrete-event primitives.
//
// Events are (time, sequence) ordered: the sequence number is a
// monotonically increasing counter so simultaneous events execute in
// scheduling (FIFO) order -- determinism the reproduction depends on.
//
// The engine's calendar (ladder_calendar.hpp) holds typed POD payloads
// (des::LifecycleEvent, lifecycle.hpp), so an event costs zero heap
// allocations; arrivals never enter it -- they stream from the arrival
// ring and are merged against the calendar head by Engine::run_impl
// (DESIGN.md §7, §11).  The closure-payload kernel the typed loop is
// checked against lives with the tests (tests/oracle/des/).
#pragma once

#include "common/units.hpp"
