/**
 * @file
 * Base class for named simulated hardware/software components.
 */

#pragma once

#include <string>

#include "event_queue.hh"
#include "types.hh"

namespace nectar::sim {

/**
 * A named participant in the simulation.
 *
 * Components hold a reference to the (single) event queue and provide
 * naming for log and trace messages.  Hierarchical names use '.' as a
 * separator, e.g. "hub1.port3".
 */
class Component
{
  public:
    /**
     * @param eq The simulation's event queue.
     * @param name Hierarchical instance name.
     */
    Component(EventQueue &eq, std::string name)
        : _eventq(eq), _name(std::move(name))
    {}

    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Instance name, e.g. "hub1.port3". */
    const std::string &name() const { return _name; }

    /** The simulation event queue. */
    EventQueue &eventq() { return _eventq; }
    const EventQueue &eventq() const { return _eventq; }

    /** Current simulated time. */
    Tick now() const { return _eventq.now(); }

  protected:
    /** Schedule a member callback @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, EventFn fn,
               EventPriority prio = EventPriority::normal)
    {
        return _eventq.scheduleIn(delay, std::move(fn), prio);
    }

  private:
    EventQueue &_eventq;
    std::string _name;
};

} // namespace nectar::sim
